package corpus

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// decodeLine decodes one JSONL line exactly as json.Unmarshal into a zero
// Document would — same Document, same error — for every input. acceptLine
// takes the lines it is certain about; anything else encoding/json decodes
// from the same bytes, so it alone defines what a line means and words
// every error a caller sees.
func decodeLine(line []byte) (Document, error) {
	if d, ok := acceptLine(line); ok {
		return d, nil
	}
	var d Document
	err := json.Unmarshal(line, &d)
	return d, err
}

// acceptLine decodes line and reports true only when json.Unmarshal is
// certain to accept it with the same result: one object whose keys are
// exactly URL, Domain, Author and Text, each at most once, with string
// values as acceptString and an Author as acceptInt take them.
func acceptLine(line []byte) (d Document, ok bool) {
	i := skipSpace(line, 0)
	if i >= len(line) || line[i] != '{' {
		return d, false
	}
	i = skipSpace(line, i+1)
	if i < len(line) && line[i] == '}' {
		return d, skipSpace(line, i+1) == len(line)
	}
	for seen := 0; ; i = skipSpace(line, i+1) {
		if i >= len(line) || line[i] != '"' {
			return d, false
		}
		n := bytes.IndexByte(line[i+1:], '"')
		if n < 0 {
			return d, false
		}
		// A folded, escaped or unknown key matches no case and keeps bit 0;
		// a repeated key's bit is already in seen.
		bit, str := 0, (*string)(nil)
		switch string(line[i+1 : i+1+n]) {
		case "URL":
			bit, str = 1, &d.URL
		case "Domain":
			bit, str = 2, &d.Domain
		case "Text":
			bit, str = 4, &d.Text
		case "Author":
			bit = 8
		}
		if i = skipSpace(line, i+n+2); bit&^seen == 0 || i >= len(line) || line[i] != ':' {
			return d, false
		}
		seen |= bit
		if i = skipSpace(line, i+1); str != nil {
			*str, i, ok = acceptString(line, i)
		} else {
			d.Author, i, ok = acceptInt(line, i)
		}
		if i = skipSpace(line, i); !ok || i >= len(line) {
			return d, false
		}
		if line[i] == '}' {
			return d, skipSpace(line, i+1) == len(line)
		}
		if line[i] != ',' {
			return d, false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// acceptInt takes the integer literal at b[i:], -?(0|[1-9][0-9]*), unless
// it overflows an int or runs on into a fraction or an exponent.
func acceptInt(b []byte, i int) (n, next int, ok bool) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	first := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == first || (b[first] == '0' && i > first+1) ||
		(i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E')) {
		return 0, i, false
	}
	n, err := strconv.Atoi(string(b[start:i]))
	return n, i, err == nil
}

// plain marks the bytes that stand for themselves in a string literal and
// need no second look: printable ASCII but for the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// acceptString takes the string literal at b[i:]: valid UTF-8, no raw
// control bytes, and only the escapes JSON encoders write — the
// two-character ones and \uXXXX, a surrogate only as half of a valid pair.
// (json.Unmarshal turns invalid UTF-8 and lone surrogates into U+FFFD;
// those lines are not ours to take.)
func acceptString(b []byte, i int) (s string, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return "", i, false
	}
	i++
	start, escaped, high := i, false, false
scan:
	for ; i < len(b); i++ {
		switch c := b[i]; {
		case plain[c]:
		case c == '"':
			break scan
		case c == '\\':
			escaped = true
			i++ // whatever follows is not the closing quote
		case c >= utf8.RuneSelf:
			high = true
		default: // a raw control byte
			return "", i, false
		}
	}
	if i >= len(b) {
		return "", i, false
	}
	raw := b[start:i]
	// Escapes are ASCII, so they cannot complete a broken multi-byte
	// sequence: the raw span is valid UTF-8 iff every run between them is.
	if high && !utf8.Valid(raw) {
		return "", i, false
	}
	if !escaped {
		return string(raw), i + 1, true
	}
	s, ok = unescape(raw)
	return s, i + 1, ok
}

// unescape resolves the escapes in the body of a string literal, in one
// allocation (the escaped form is never shorter than the result). A
// backslash is never raw's last byte: it would have escaped the quote.
func unescape(raw []byte) (string, bool) {
	var sb strings.Builder
	sb.Grow(len(raw))
	for i := 0; i < len(raw); i++ {
		if raw[i] != '\\' {
			sb.WriteByte(raw[i])
			continue
		}
		i++
		if k := strings.IndexByte(`"\/bfnrt`, raw[i]); k >= 0 {
			sb.WriteByte("\"\\/\b\f\n\r\t"[k])
			continue
		}
		r, ok := hex4(raw, i+1)
		if raw[i] != 'u' || !ok {
			return "", false
		}
		i += 4
		if utf16.IsSurrogate(r) {
			low, ok := hex4(raw, i+3)
			r = utf16.DecodeRune(r, low)
			if !ok || raw[i+1] != '\\' || raw[i+2] != 'u' || r == utf8.RuneError {
				return "", false
			}
			i += 6
		}
		sb.WriteRune(r)
	}
	return sb.String(), true
}

// hex4 reads the four hex digits at b[i:i+4].
func hex4(b []byte, i int) (rune, bool) {
	if i+4 > len(b) {
		return 0, false
	}
	v, err := strconv.ParseUint(string(b[i:i+4]), 16, 32)
	return rune(v), err == nil
}
