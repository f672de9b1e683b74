package corpus

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// decodeSeeds are the inputs on which a hand-written decoder is most likely
// to part ways with encoding/json; FuzzDecodeLine starts from them and
// TestDecodeLineMatchesJSON runs them in every `go test`.
var decodeSeeds = []string{
	`{"URL":"http://a.com/1","Domain":"com","Author":7,"Text":"Kittens are cute."}`,
	`{}`,
	` { } `,
	"\t{\"URL\" : \"u\" ,\r\n\"Author\" : 3 }\n",
	`{"Text":"only"}`,
	// Keys encoding/json folds onto the fields, which the acceptor must not.
	`{"url":"folded","TEXT":"folded","author":5,"domain":"d"}`,
	`{"URL":"first","URL":"second"}`,
	`{"URL":"first","url":"second"}`,
	`{"Author":1,"Author":2}`,
	`{"\u0055RL":"escaped key"}`,
	"{\"Te\u017ft\":\"long s folds to s\"}",
	// null, wrong types, nested values.
	`{"URL":null,"Text":null,"Author":null}`,
	`{"URL":5}`,
	`{"Text":["a"]}`,
	`{"Author":"7"}`,
	`{"Author":{"n":1}}`,
	`{"Author":true}`,
	// Number shapes.
	`{"Author":1.5}`,
	`{"Author":-0}`,
	`{"Author":0}`,
	`{"Author":-12}`,
	`{"Author":01}`,
	`{"Author":1e3}`,
	`{"Author":1E3}`,
	`{"Author":-}`,
	`{"Author":+1}`,
	`{"Author":999999999999999999}`,
	`{"Author":9223372036854775807}`,
	`{"Author":9223372036854775808}`,
	`{"Author":-9223372036854775808}`,
	`{"Author":12345678901234567890}`,
	`{"Author":1 2}`,
	// String bodies.
	`{"Text":"quote \" backslash \\ slash \/ \b\f\n\r\t"}`,
	`{"Text":"\u003cb\u003e \u0026 \u2028 \u0000 \u00e9 \uFFFD"}`,
	`{"Text":"pair \ud83d\ude00 \uD83D\uDE00"}`,
	`{"Text":"lone high \ud83d"}`,
	`{"Text":"lone high then text \ud83dxyz"}`,
	`{"Text":"lone low \ude00"}`,
	`{"Text":"reversed \ude00\ud83d"}`,
	`{"Text":"high high \ud83d\ud83d"}`,
	`{"Text":"high then bmp \ud83d\u0041"}`,
	`{"Text":"bad escape \x"}`,
	`{"Text":"short \u12"}`,
	`{"Text":"bad hex \u12g4"}`,
	`{"Text":"dangling \`,
	`{"Text":"dangling quote \"}`,
	"{\"Text\":\"non-ASCII caf\u00e9 \u4e16\u754c \u2028\"}",
	"{\"Text\":\"invalid utf8 \xff\xfe\"}",
	"{\"Text\":\"truncated rune \xe4\xb8\"}",
	"{\"Text\":\"escape inside rune \xe4\\n\xb8\x96\"}",
	"{\"Text\":\"raw control \x01\"}",
	"{\"Text\":\"raw tab \t\"}",
	"{\"Text\":\"raw newline \n\"}",
	"{\"Text\":\"control after backslash \\\x01\"}",
	"{\"Text\":\"del \x7f\"}",
	// Structure.
	`{"URL":"u"} trailing`,
	`{"URL":"u"}{"URL":"v"}`,
	`{"URL":"u"},`,
	`{"URL":"u",}`,
	`{,"URL":"u"}`,
	`{"URL":"u" "Text":"t"}`,
	`{"URL" "u"}`,
	`{"URL":}`,
	`{"URL":"u"`,
	`{"URL":"u`,
	`{"URL`,
	`{`,
	``,
	` `,
	`[{"URL":"u"}]`,
	`"URL"`,
	`null`,
	`7`,
	"\xef\xbb\xbf{\"URL\":\"bom\"}",
	`{"Unknown":1,"URL":"u"}`,
	`{"URL":"u","Extra":{"deep":[1,2,{"x":null}]}}`,
	`{"":"empty key"}`,
}

// checkDecodeLine holds decodeLine to its contract on one input: the same
// document and the same error as json.Unmarshal into a zero Document.
func checkDecodeLine(t *testing.T, line []byte) {
	t.Helper()
	got, gotErr := decodeLine(line)
	var want Document
	wantErr := json.Unmarshal(line, &want)
	if got != want {
		t.Fatalf("%q: decodeLine gave %+v, json.Unmarshal %+v", line, got, want)
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: decodeLine error %v, json.Unmarshal error %v", line, gotErr, wantErr)
	}
	if gotErr == nil {
		return
	}
	if gotErr.Error() != wantErr.Error() {
		t.Fatalf("%q: decodeLine error %q, json.Unmarshal error %q", line, gotErr, wantErr)
	}
	var gs, ws *json.SyntaxError
	var gt, wt *json.UnmarshalTypeError
	if errors.As(gotErr, &gs) != errors.As(wantErr, &ws) || errors.As(gotErr, &gt) != errors.As(wantErr, &wt) {
		t.Fatalf("%q: decodeLine error type %T, json.Unmarshal error type %T", line, gotErr, wantErr)
	}
}

func TestDecodeLineMatchesJSON(t *testing.T) {
	for _, s := range decodeSeeds {
		checkDecodeLine(t, []byte(s))
	}
}

// FuzzDecodeLine is the differential check behind "accept only when
// certain": whatever the bytes, decodeLine and json.Unmarshal agree.
func FuzzDecodeLine(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecodeLine(t, line)
	})
}

// TestAcceptLineTakesWhatWriteJSONLEmits states the property the decoder's
// speed depends on: every line WriteJSONL produces is taken by acceptLine
// itself, never by the encoding/json fallback, whatever the text holds.
func TestAcceptLineTakesWhatWriteJSONLEmits(t *testing.T) {
	docs := []Document{
		{URL: "http://a.com/1", Domain: "com", Author: 7, Text: "Kittens are cute."},
		{},
		{Author: -3, Text: `She said "hello" and left.`},
		{Text: `C:\path\to\file and a trailing backslash \`},
		{Text: "<b>Tom & Jerry</b> are <i>funny</i>"},
		{Text: "line\u2028separator and paragraph\u2029separator"},
		{Text: "controls \x00\x01\x08\x0c\x1f and \t\n\r and del \x7f"},
		{URL: "http://例え.jp/猫", Domain: "jp", Text: "café, 世界, 😀 and 𝄞"},
		{Text: "invalid \xff\xfe and truncated \xe4\xb8"},
		{Author: -1 << 63, Text: strings.Repeat(`"\<`, 1000)},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, docs); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != len(docs) {
		t.Fatalf("WriteJSONL wrote %d lines for %d documents", len(lines), len(docs))
	}
	// What other JSON encoders write and Go's does not: \/, surrogate pairs,
	// upper-case hex, spaces around the punctuation, any key order.
	lines = append(lines,
		[]byte(`{"Text":"http:\/\/a.com \ud83d\ude00 \uD83D\uDE00 \u00E9"}`),
		[]byte(` { "Text" : "t" , "Author" : 0 , "URL" : "u" } `))
	for i, line := range lines {
		got, ok := acceptLine(line)
		if !ok {
			t.Errorf("line %d left to the fallback: %s", i, line)
			continue
		}
		var want Document
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got != want {
			t.Errorf("line %d: acceptLine gave %+v, json.Unmarshal %+v", i, got, want)
		}
	}
}
