package corpus

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/nlp/depparse"
	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
	"repro/internal/nlp/token"
	"repro/internal/stats"
	"repro/internal/tagger"
)

func smallKB() *kb.KB {
	base := kb.New()
	base.SetAttr(base.Add(kb.Entity{Name: "kitten", Type: "animal"}), "cuteness", 0.95)
	base.SetAttr(base.Add(kb.Entity{Name: "spider", Type: "animal"}), "cuteness", 0.05)
	base.SetAttr(base.Add(kb.Entity{Name: "tiger", Type: "animal"}), "cuteness", 0.6)
	base.SetAttr(base.Add(kb.Entity{Name: "Bigville", Type: "city", Proper: true}), "population", 1_000_000)
	base.SetAttr(base.Add(kb.Entity{Name: "Tinytown", Type: "city", Proper: true}), "population", 900)
	return base
}

// AttrTruth builds a truth function thresholding an objective attribute:
// Truth(e) = e.Attr(attr) >= threshold.
func AttrTruth(attr string, threshold float64) func(e *kb.Entity, domain string) bool {
	return func(e *kb.Entity, domain string) bool {
		return e.Attr(attr, 0) >= threshold
	}
}

func smallSpecs() []Spec {
	return []Spec{
		{Type: "animal", Property: "cute", PA: 0.9, NpPlus: 30, NpMinus: 3,
			Truth: AttrTruth("cuteness", 0.5)},
		{Type: "city", Property: "big", PA: 0.9, NpPlus: 25, NpMinus: 2,
			Truth: AttrTruth("population", 100_000)},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	base := smallKB()
	cfg := Config{Seed: 42}
	a := NewGenerator(base, smallSpecs(), cfg).Generate()
	b := NewGenerator(base, smallSpecs(), cfg).Generate()
	if len(a.Documents) != len(b.Documents) {
		t.Fatalf("doc counts differ: %d vs %d", len(a.Documents), len(b.Documents))
	}
	for i := range a.Documents {
		if a.Documents[i].Text != b.Documents[i].Text {
			t.Fatalf("doc %d differs", i)
		}
	}
}

func TestGenerateTruthTable(t *testing.T) {
	base := smallKB()
	snap := NewGenerator(base, smallSpecs(), Config{Seed: 1}).Generate()
	kitten := base.Candidates("kitten")[0]
	spider := base.Candidates("spider")[0]
	if !snap.Truth[TruthKey{kitten, "cute"}] {
		t.Error("kitten should be latently cute")
	}
	if snap.Truth[TruthKey{spider, "cute"}] {
		t.Error("spider should not be latently cute")
	}
	big := base.Candidates("bigville")[0]
	small := base.Candidates("tinytown")[0]
	if !snap.Truth[TruthKey{big, "big"}] || snap.Truth[TruthKey{small, "big"}] {
		t.Error("city size truth wrong")
	}
}

func TestGenerateStatementVolume(t *testing.T) {
	base := smallKB()
	snap := NewGenerator(base, smallSpecs(), Config{Seed: 2}).Generate()
	// 3 animals with λ≈30 or 3, 2 cities with λ≈25 or 2: expect on the
	// order of 30+3+30 + 25+2 ≈ 90-120 statements.
	if snap.Statements < 40 || snap.Statements > 250 {
		t.Fatalf("statements = %d, outside plausible range", snap.Statements)
	}
	if len(snap.Documents) == 0 {
		t.Fatal("no documents")
	}
}

func TestDocumentsRespectSentenceBounds(t *testing.T) {
	base := smallKB()
	cfg := Config{Seed: 3, MinSentencesPerDoc: 1, MaxSentencesPerDoc: 4}
	snap := NewGenerator(base, smallSpecs(), cfg).Generate()
	for _, d := range snap.Documents {
		n := len(splitSentences(d.Text))
		if n < 1 || n > 4 {
			t.Fatalf("document with %d sentences: %q", n, d.Text)
		}
	}
}

func TestDomainsPartitionDocuments(t *testing.T) {
	base := smallKB()
	cfg := Config{Seed: 4, Domains: []DomainShare{
		{Domain: "com", Share: 0.7}, {Domain: "cn", Share: 0.3}}}
	snap := NewGenerator(base, smallSpecs(), cfg).Generate()
	com := snap.DocumentsInDomain("com")
	cn := snap.DocumentsInDomain("cn")
	if len(com) == 0 || len(cn) == 0 {
		t.Fatalf("domains not populated: com=%d cn=%d", len(com), len(cn))
	}
	if len(com)+len(cn) != len(snap.Documents) {
		t.Fatal("domains do not partition the snapshot")
	}
	if len(com) < len(cn) {
		t.Errorf("com (share .7) has fewer docs (%d) than cn (%d)", len(com), len(cn))
	}
	for _, d := range com {
		if !strings.Contains(d.URL, ".com/") {
			t.Fatalf("com doc with URL %q", d.URL)
		}
	}
}

func TestScaleMultipliesVolume(t *testing.T) {
	base := smallKB()
	small := NewGenerator(base, smallSpecs(), Config{Seed: 5, Scale: 1}).Generate()
	big := NewGenerator(base, smallSpecs(), Config{Seed: 5, Scale: 4}).Generate()
	ratio := float64(big.Statements) / float64(small.Statements+1)
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("scale 4 produced ratio %v", ratio)
	}
}

func TestLatentPosFraction(t *testing.T) {
	spec := smallSpecs()[0]
	base := smallKB()
	kitten := base.Get(base.Candidates("kitten")[0])
	spider := base.Get(base.Candidates("spider")[0])
	if got := spec.LatentPosFraction(kitten, "com"); got != 0.9 {
		t.Fatalf("kitten pos fraction = %v", got)
	}
	if got := spec.LatentPosFraction(spider, "com"); got < 0.0999 || got > 0.1001 {
		t.Fatalf("spider pos fraction = %v", got)
	}
}

// frontend bundles the pipeline stages for round-trip tests.
type frontend struct {
	pt *pos.Tagger
	dp *depparse.Parser
	et *tagger.Tagger
	ex *extract.Extractor
}

func newFrontend(base *kb.KB, v extract.Version) *frontend {
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	return &frontend{
		pt: pos.New(lex),
		dp: depparse.New(lex),
		et: tagger.New(base, lex),
		ex: extract.NewVersion(lex, v),
	}
}

// splitSentences splits text on fresh buffers.
func splitSentences(text string) []token.Sentence {
	s, _ := token.SplitSentencesInto(nil, nil, text)
	return s
}

func (f *frontend) extractAll(text string) []extract.Statement {
	var out []extract.Statement
	for _, sent := range splitSentences(text) {
		tagged := f.pt.TagInto(nil, sent)
		tree := f.dp.ParseInto(new(depparse.Scratch), tagged)
		mentions := f.et.TagInto(nil, new(tagger.Scratch), tagged)
		out = append(out, f.ex.ExtractInto(nil, tree, mentions)...)
	}
	return out
}

// TestEvidenceSentenceRoundTrip is the load-bearing correctness test: every
// evidence sentence the renderer can produce must be extracted by the
// shipped pattern version (or deliberately skipped if it uses a broad
// copula), with the right entity, property, and polarity.
func TestEvidenceSentenceRoundTrip(t *testing.T) {
	base := smallKB()
	f := newFrontend(base, extract.V4)
	rng := stats.NewRNG(99)
	r := newRenderer(base, rng)
	specs := smallSpecs()
	cfg := Config{}.withDefaults()

	total, extracted, broadCopula := 0, 0, 0
	for trial := 0; trial < 2000; trial++ {
		spec := &specs[trial%len(specs)]
		ids := base.OfType(spec.Type)
		e := base.Get(ids[trial%len(ids)])
		positive := trial%3 != 0
		text := r.evidenceSentence(spec, e, positive, cfg)
		total++

		stmts := f.extractAll(text)
		if len(stmts) == 0 {
			// The only legitimate misses for V4 are broad-copula renders.
			if strings.Contains(text, "seem") {
				broadCopula++
				continue
			}
			t.Fatalf("V4 failed to extract %q (spec %s/%s, positive=%v)",
				text, spec.Type, spec.Property, positive)
		}
		extracted++
		// Find the statement about the tracked property.
		var found *extract.Statement
		for i := range stmts {
			if stmts[i].Property == spec.Property {
				found = &stmts[i]
				break
			}
		}
		if found == nil {
			t.Fatalf("no statement for property %q in %q: %v", spec.Property, text, stmts)
		}
		if found.Entity != e.ID {
			t.Fatalf("entity mismatch for %q: got %d, want %d", text, found.Entity, e.ID)
		}
		wantPol := extract.Positive
		if !positive {
			wantPol = extract.Negative
		}
		if found.Polarity != wantPol {
			t.Fatalf("polarity mismatch for %q: got %v, want %v", text, found.Polarity, wantPol)
		}
	}
	if extracted < total*85/100 {
		t.Fatalf("extraction rate too low: %d/%d (broad copula: %d)", extracted, total, broadCopula)
	}
	if broadCopula == 0 {
		t.Error("expected some broad-copula renders in 2000 trials")
	}
}

// TestBroadCopulaExtractedByV2 verifies the recall the broad-copula
// templates add for versions 1-2.
func TestBroadCopulaExtractedByV2(t *testing.T) {
	base := smallKB()
	f := newFrontend(base, extract.V2)
	stmts := f.extractAll("The kitten seems cute.")
	if len(stmts) != 1 || stmts[0].Property != "cute" || stmts[0].Polarity != extract.Positive {
		t.Fatalf("V2 on broad copula: %v", stmts)
	}
	stmts = f.extractAll("Kittens don't seem cute.")
	if len(stmts) != 1 || stmts[0].Polarity != extract.Negative {
		t.Fatalf("V2 on negated broad copula: %v", stmts)
	}
}

// TestNoiseSentencesFilteredByV4 verifies that the distractors are
// invisible to the shipped version but (partially) visible to V2.
func TestNoiseSentencesFilteredByV4(t *testing.T) {
	base := smallKB()
	f4 := newFrontend(base, extract.V4)
	f2 := newFrontend(base, extract.V2)
	rng := stats.NewRNG(123)
	r := newRenderer(base, rng)
	specs := smallSpecs()
	cfg := Config{}.withDefaults()

	v4Hits, v2Hits := 0, 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		text := r.noiseSentence(specs, cfg)
		v4Hits += len(f4.extractAll(text))
		v2Hits += len(f2.extractAll(text))
	}
	if v4Hits > trials/50 {
		t.Fatalf("V4 extracted %d statements from %d noise sentences", v4Hits, trials)
	}
	if v2Hits < trials/10 {
		t.Fatalf("V2 extracted only %d from %d noise sentences — distractors too weak", v2Hits, trials)
	}
}

func TestRegionalSpecTruthDiffers(t *testing.T) {
	base := smallKB()
	spec := RegionalSpec("big", "com", "cn", 100_000)
	// Bigville (1M) is big in both regions; a 250k city would differ.
	base.SetAttr(base.Add(kb.Entity{Name: "Midburg", Type: "city", Proper: true}), "population", 250_000)
	mid := base.Get(base.Candidates("midburg")[0])
	if !spec.Truth(mid, "com") {
		t.Error("250k should be big for domain com (threshold 100k)")
	}
	if spec.Truth(mid, "cn") {
		t.Error("250k should not be big for domain cn (threshold 400k)")
	}
}

func TestTable2SpecsComplete(t *testing.T) {
	specs := Table2Specs()
	if len(specs) != 25 {
		t.Fatalf("Table 2 has %d specs, want 25", len(specs))
	}
	byType := map[string]int{}
	for _, s := range specs {
		byType[s.Type]++
		if s.PA <= 0.5 || s.PA >= 1 {
			t.Errorf("%s/%s: pA = %v out of range", s.Type, s.Property, s.PA)
		}
		if s.NpPlus <= 0 || s.NpMinus <= 0 {
			t.Errorf("%s/%s: non-positive rates", s.Type, s.Property)
		}
		if s.Truth == nil && s.PosFraction == nil {
			t.Errorf("%s/%s: no latent truth", s.Type, s.Property)
		}
	}
	for _, typ := range []string{"animal", "celebrity", "city", "profession", "sport"} {
		if byType[typ] != 5 {
			t.Errorf("type %q has %d properties, want 5", typ, byType[typ])
		}
	}
}

func TestInvertedPolarityBiasExists(t *testing.T) {
	// At least one Table-2 spec must have np−S > np+S (the safe-cities
	// narrative of Example 2).
	found := false
	for _, s := range Table2Specs() {
		if s.NpMinus > s.NpPlus {
			found = true
		}
	}
	if !found {
		t.Fatal("no spec with inverted polarity bias")
	}
}

func TestAppendixASpecs(t *testing.T) {
	specs := AppendixASpecs()
	if len(specs) != 3 {
		t.Fatalf("Appendix A has %d specs", len(specs))
	}
	types := map[string]bool{}
	for _, s := range specs {
		types[s.Type] = true
	}
	if !types["country"] || !types["lake"] || !types["mountain"] {
		t.Fatalf("Appendix A types: %v", types)
	}
}

func TestRandomSpecsVaryParameters(t *testing.T) {
	types := []string{"t1", "t2", "t3", "t4", "t5"}
	props := []string{"cute", "big", "rare"}
	specs := RandomSpecs(types, props, 1)
	if len(specs) != 5 {
		t.Fatalf("specs = %d", len(specs))
	}
	pas := map[float64]bool{}
	for _, s := range specs {
		pas[s.PA] = true
		if !s.PopularityWeighting {
			t.Error("random specs should use popularity weighting")
		}
	}
	if len(pas) < 3 {
		t.Error("pA values should vary across random specs")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	base := smallKB()
	snap := NewGenerator(base, smallSpecs(), Config{Seed: 33}).Generate()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, snap.Documents); err != nil {
		t.Fatal(err)
	}
	got, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(snap.Documents) {
		t.Fatalf("docs = %d, want %d", len(got), len(snap.Documents))
	}
	for i := range got {
		if got[i] != snap.Documents[i] {
			t.Fatalf("doc %d mismatch", i)
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := readJSONL(strings.NewReader("{ok}\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
	if !strings.Contains(func() string {
		_, err := readJSONL(strings.NewReader("{\"URL\":\"x\"}\nnot json\n"))
		return err.Error()
	}(), "line 2") {
		t.Fatal("error should name the failing line")
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	docs, err := readJSONL(strings.NewReader("\n{\"URL\":\"a\"}\n\n{\"URL\":\"b\"}\n"))
	if err != nil || len(docs) != 2 {
		t.Fatalf("docs=%v err=%v", docs, err)
	}
}
