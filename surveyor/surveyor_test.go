package surveyor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wire"
)

func demoSystem() *System {
	sys := NewSystem()
	sys.AddEntity("kitten", "animal", false, nil)
	sys.AddEntity("puppy", "animal", false, nil)
	sys.AddEntity("spider", "animal", false, nil)
	sys.AddEntity("scorpion", "animal", false, nil)
	return sys
}

func demoDocs() []Document {
	texts := []string{
		"Kittens are cute. I think that puppies are cute.",
		"Kittens are really cute animals. Puppies are cute.",
		"Spiders are not cute. I don't think that scorpions are cute.",
		"The kitten is cute. The puppy is a cute animal.",
		"Spiders aren't cute. Scorpions are never cute.",
		"Everyone agrees that kittens are cute.",
		"Kittens are cute and lovely. Puppies seem cute.",
		"I don't think that spiders are cute.",
	}
	docs := make([]Document, len(texts))
	for i, t := range texts {
		docs[i] = Document{URL: "http://example.com", Domain: "com", Text: t}
	}
	return docs
}

func TestMineEndToEnd(t *testing.T) {
	sys := demoSystem()
	res := sys.Mine(demoDocs(), Config{Rho: 1})

	for name, want := range map[string]Opinion{
		"kitten": Positive, "puppy": Positive,
		"spider": Negative, "scorpion": Negative,
	} {
		op, ok := res.Opinion(name, "cute")
		if !ok {
			t.Fatalf("%s/cute not classified", name)
		}
		if op.Opinion != want {
			t.Errorf("%s cute = %v (p=%.3f), want %v", name, op.Opinion, op.Probability, want)
		}
	}
}

func TestMineStatementCounts(t *testing.T) {
	sys := demoSystem()
	res := sys.Mine(demoDocs(), Config{Rho: 1})
	op, ok := res.Opinion("kitten", "cute")
	if !ok || op.Pos < 4 {
		t.Fatalf("kitten counts: %+v ok=%v", op, ok)
	}
	if op.Neg != 0 {
		t.Fatalf("kitten should have no negative statements: %+v", op)
	}
	sp, _ := res.Opinion("spider", "cute")
	if sp.Neg < 2 || sp.Pos != 0 {
		t.Fatalf("spider counts: %+v", sp)
	}
}

func TestOpinionUnknownEntity(t *testing.T) {
	sys := demoSystem()
	res := sys.Mine(demoDocs(), Config{Rho: 1})
	if _, ok := res.Opinion("unicorn", "cute"); ok {
		t.Fatal("unknown entity resolved")
	}
}

func TestGroupsAndStats(t *testing.T) {
	sys := demoSystem()
	res := sys.Mine(demoDocs(), Config{Rho: 1})
	groups := res.Groups()
	found := false
	for _, g := range groups {
		if g.Type == "animal" && g.Property == "cute" {
			found = true
			if len(g.Entities) != 4 {
				t.Errorf("group entities = %d, want 4", len(g.Entities))
			}
			if g.PA <= 0.5 || g.PA > 1 {
				t.Errorf("fitted PA = %v", g.PA)
			}
		}
	}
	if !found {
		t.Fatal("animal/cute group missing")
	}
	st := res.Stats()
	if st.Statements == 0 || st.Documents != 8 || st.Sentences < 8 {
		t.Fatalf("stats: %+v", st)
	}
	if !strings.Contains(st.String(), "statements=") {
		t.Error("Stats.String unhelpful")
	}
}

func TestEvidenceExport(t *testing.T) {
	sys := demoSystem()
	res := sys.Mine(demoDocs(), Config{Rho: 1})
	ev := res.Evidence()
	if len(ev) == 0 {
		t.Fatal("no evidence exported")
	}
	seen := false
	for _, e := range ev {
		if e.Entity == "kitten" && e.Property == "cute" && e.Pos > 0 {
			seen = true
		}
	}
	if !seen {
		t.Fatal("kitten/cute evidence missing")
	}
}

func TestSaveEvidenceAndKB(t *testing.T) {
	sys := demoSystem()
	res := sys.Mine(demoDocs(), Config{Rho: 1})
	var buf bytes.Buffer
	if err := res.SaveEvidence(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := wire.DecodeStore(&buf)
	if err != nil {
		t.Fatalf("reading the evidence dump back: %v", err)
	}
	if want, got := res.res.Store.Snapshot(), loaded.Snapshot(); len(want) == 0 || !reflect.DeepEqual(want, got) {
		t.Fatalf("evidence dump read back as %d entries, mined %d", len(got), len(want))
	}
	buf.Reset()
	if err := sys.SaveKB(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "kitten") {
		t.Fatal("KB dump missing entities")
	}
}

func TestFitModelLowLevel(t *testing.T) {
	// Counts straight from the paper's Example 2 shape.
	tuples := make([]Counts, 0, 300)
	for i := 0; i < 100; i++ { // positive entities: many positive mentions
		tuples = append(tuples, Counts{Pos: 40 + i%20, Neg: i % 3})
	}
	for i := 0; i < 200; i++ { // negative entities: few statements
		tuples = append(tuples, Counts{Pos: i % 3, Neg: 3 + i%5})
	}
	m := FitModel(tuples)
	if m.PA <= 0.5 || m.NpPlus <= m.NpMinus {
		t.Fatalf("fitted model: %+v", m)
	}
	if p := m.ProbabilityPositive(Counts{Pos: 45, Neg: 1}); p < 0.9 {
		t.Fatalf("Pr(+|45,1) = %v", p)
	}
	if m.Decide(Counts{}) != Negative {
		t.Fatal("zero-evidence should decide negative in this world")
	}
}

func TestMajorityVoteHelper(t *testing.T) {
	if MajorityVote(Counts{3, 1}) != Positive ||
		MajorityVote(Counts{1, 3}) != Negative ||
		MajorityVote(Counts{0, 0}) != Unsolved {
		t.Fatal("MajorityVote wrong")
	}
}

func TestOpinionString(t *testing.T) {
	if Positive.String() != "+" || Negative.String() != "-" || Unsolved.String() != "N" {
		t.Fatal("Opinion.String mismatch")
	}
}

func TestBuiltinKB(t *testing.T) {
	sys := NewSystemWithBuiltinKB(1)
	if sys.EntityCount() < 500 {
		t.Fatalf("builtin KB has %d entities", sys.EntityCount())
	}
	types := sys.Types()
	if len(types) < 8 {
		t.Fatalf("builtin KB types: %v", types)
	}
}

func TestAddSubjectiveAdjective(t *testing.T) {
	sys := NewSystem()
	sys.AddEntity("gadget", "device", false, nil)
	sys.AddSubjectiveAdjective("spiffy", "shabby")
	res := sys.Mine([]Document{
		{Text: "Gadgets are spiffy. The gadget is spiffy."},
		{Text: "Gadgets are really spiffy devices."},
	}, Config{Rho: 1})
	op, ok := res.Opinion("gadget", "spiffy")
	if !ok || op.Opinion != Positive {
		t.Fatalf("custom adjective: %+v ok=%v", op, ok)
	}
}

func TestEntityNameRoundTrip(t *testing.T) {
	sys := NewSystem()
	id := sys.AddEntity("Palo Alto", "city", true, map[string]float64{"population": 64000})
	if sys.EntityName(id) != "Palo Alto" {
		t.Fatal("EntityName mismatch")
	}
}

// mineBigCities mines big and small cities whose population attributes
// separate them, each city also carrying the extra attributes.
func mineBigCities(extra map[string]float64) *Result {
	sys := NewSystem()
	// Cities with population attributes; statements only about big ones.
	bigs := []string{"Megaton", "Grandville", "Hugeport", "Vastburg"}
	smalls := []string{"Tinyton", "Littleville", "Smallport", "Weeburg"}
	add := func(n string, pop float64) {
		attrs := map[string]float64{"population": pop}
		for k, v := range extra {
			attrs[k] = v
		}
		sys.AddEntity(n, "city", true, attrs)
	}
	for i, n := range bigs {
		add(n, 1_000_000+float64(i))
	}
	for i, n := range smalls {
		add(n, 5_000+float64(i))
	}
	var docs []Document
	for _, n := range bigs {
		docs = append(docs,
			Document{Text: n + " is a big city. " + n + " is big. Everyone agrees that " + n + " is big."},
			Document{Text: "I think that " + n + " is big. " + n + " is really big."})
	}
	for _, n := range smalls {
		docs = append(docs, Document{Text: n + " is not a big city. " + n + " isn't big."})
	}
	return sys.Mine(docs, Config{Rho: 1})
}

func TestLearnRule(t *testing.T) {
	res := mineBigCities(nil)
	rule, ok := res.LearnRule("city", "big", "population")
	if !ok {
		t.Fatal("LearnRule failed")
	}
	if !rule.AppliesAbove {
		t.Fatalf("direction wrong: %+v", rule)
	}
	if rule.Threshold < 5_000 || rule.Threshold > 1_000_000 {
		t.Fatalf("threshold = %v", rule.Threshold)
	}
	if rule.Agreement < 0.9 {
		t.Fatalf("agreement = %v", rule.Agreement)
	}
	if !strings.Contains(rule.String(), "population") {
		t.Fatalf("String() = %q", rule.String())
	}
	// Missing attribute or unmodelled group fail cleanly.
	if _, ok := res.LearnRule("city", "big", "nonexistent_attr"); ok {
		t.Fatal("rule on missing attribute should fail")
	}
	if _, ok := res.LearnRule("city", "purple", "population"); ok {
		t.Fatal("rule on unmodelled property should fail")
	}
}

// TestLearnRuleNaNAttributeIsAbsent: an attribute every entity carries as
// NaN is absent, so no rule is learnt on it (no "area < NaN" bound).
func TestLearnRuleNaNAttributeIsAbsent(t *testing.T) {
	res := mineBigCities(map[string]float64{"area_km2": math.NaN()})
	if rule, ok := res.LearnRule("city", "big", "area_km2"); ok {
		t.Fatalf("rule on a NaN-only attribute: %v", rule)
	}
	if _, ok := res.LearnRule("city", "big", "population"); !ok {
		t.Fatal("LearnRule on population failed beside a NaN attribute")
	}
}

func TestQueryFacade(t *testing.T) {
	sys := demoSystem()
	res := sys.Mine(demoDocs(), Config{Rho: 1})
	answers, err := res.Query("cute animals")
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) < 2 {
		t.Fatalf("answers = %v", answers)
	}
	names := map[string]bool{}
	for _, a := range answers {
		names[a.Entity] = true
	}
	if !names["kitten"] || !names["puppy"] || names["spider"] {
		t.Fatalf("cute animals = %v", answers)
	}
	neg, err := res.Query("not cute animals")
	if err != nil {
		t.Fatal(err)
	}
	negNames := map[string]bool{}
	for _, a := range neg {
		negNames[a.Entity] = true
	}
	if !negNames["spider"] || negNames["kitten"] {
		t.Fatalf("not cute animals = %v", neg)
	}
	if _, err := res.Query("gibberish"); err == nil {
		t.Fatal("bad query should error")
	}
	props := res.QueryableProperties("animal")
	if len(props) == 0 {
		t.Fatal("no queryable properties")
	}
}

func TestPatternVersionViaFacade(t *testing.T) {
	sys := NewSystem()
	sys.AddEntity("tiger", "animal", false, nil)
	docs := []Document{
		{Text: "Tigers seem dangerous. Tigers seem dangerous."},
		{Text: "Tigers are dangerous."},
	}
	// V4 (default) ignores broad copulas; V2 counts them.
	resV4 := sys.Mine(docs, Config{Rho: 1})
	resV2 := sys.Mine(docs, Config{Rho: 1, PatternVersion: 2})
	op4, _ := resV4.Opinion("tiger", "dangerous")
	op2, _ := resV2.Opinion("tiger", "dangerous")
	if op4.Pos != 1 {
		t.Fatalf("V4 counted %d positives, want 1", op4.Pos)
	}
	if op2.Pos != 3 {
		t.Fatalf("V2 counted %d positives, want 3", op2.Pos)
	}
}

func TestEMIterationsCap(t *testing.T) {
	sys := demoSystem()
	// One EM iteration still produces sane opinions on clean data.
	res := sys.Mine(demoDocs(), Config{Rho: 1, EMIterations: 1})
	op, ok := res.Opinion("kitten", "cute")
	if !ok || op.Opinion != Positive {
		t.Fatalf("capped EM: %+v ok=%v", op, ok)
	}
}

func TestMineEmptyCorpus(t *testing.T) {
	sys := demoSystem()
	res := sys.Mine(nil, Config{})
	if st := res.Stats(); st.Statements != 0 || st.ModelledGroups != 0 {
		t.Fatalf("empty mine stats: %+v", st)
	}
	if _, ok := res.Opinion("kitten", "cute"); ok {
		t.Fatal("empty corpus should classify nothing")
	}
	if got := res.Evidence(); len(got) != 0 {
		t.Fatalf("empty corpus evidence: %v", got)
	}
}

func TestRhoDefaultIsPaper100(t *testing.T) {
	sys := demoSystem()
	// With the default ρ=100 the tiny demo corpus yields no groups.
	res := sys.Mine(demoDocs(), Config{})
	if st := res.Stats(); st.ModelledGroups != 0 {
		t.Fatalf("default rho should filter the demo corpus, got %d groups", st.ModelledGroups)
	}
}

func TestOutOfRangeHandles(t *testing.T) {
	sys := demoSystem()
	res := sys.Mine(demoDocs(), Config{Rho: 1})
	for _, id := range []int{-1, 9999} {
		if _, ok := res.OpinionByID(id, "cute"); ok {
			t.Fatalf("OpinionByID(%d) should fail", id)
		}
		if got := sys.EntityName(id); got != "" {
			t.Fatalf("EntityName(%d) = %q", id, got)
		}
	}
}

func TestMineJSONLMatchesMine(t *testing.T) {
	// Streamed mining must produce the same opinions as in-memory mining.
	inMem := demoSystem().Mine(demoDocs(), Config{Rho: 1})

	var buf bytes.Buffer
	for _, d := range demoDocs() {
		buf.WriteString(`{"URL":"http://example.com","Domain":"com","Text":` + jsonString(d.Text) + "}\n")
	}
	sys := demoSystem()
	res, err := sys.MineJSONL(context.Background(), &buf, StreamOptions{}, Config{Rho: 1})
	if err != nil {
		t.Fatalf("MineJSONL: %v", err)
	}
	a, b := inMem.Stats(), res.Stats()
	if a.Documents != b.Documents || a.Statements != b.Statements || a.ModelledGroups != b.ModelledGroups {
		t.Fatalf("stream stats %+v, in-memory %+v", b, a)
	}
	for _, name := range []string{"kitten", "puppy", "spider", "scorpion"} {
		wa, ok1 := inMem.Opinion(name, "cute")
		wb, ok2 := res.Opinion(name, "cute")
		if ok1 != ok2 || wa.Opinion != wb.Opinion {
			t.Errorf("%s: stream %v vs in-memory %v", name, wb.Opinion, wa.Opinion)
		}
	}
}

func TestMineJSONLLenientSkips(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("this is not json\n")
	for _, d := range demoDocs() {
		buf.WriteString(`{"Text":` + jsonString(d.Text) + "}\n")
	}
	buf.WriteString("{broken\n")
	sys := demoSystem()
	res, err := sys.MineJSONL(context.Background(), &buf, StreamOptions{Lenient: true}, Config{Rho: 1})
	if err != nil {
		t.Fatalf("lenient MineJSONL: %v", err)
	}
	st := res.Stats()
	if st.SkippedLines != 2 {
		t.Errorf("SkippedLines = %d, want 2", st.SkippedLines)
	}
	if st.Documents != len(demoDocs()) {
		t.Errorf("Documents = %d, want %d", st.Documents, len(demoDocs()))
	}
	if !strings.Contains(st.String(), "skipped_lines=2") {
		t.Errorf("Stats.String() = %q, want skipped-line count", st.String())
	}
}

func TestMineContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before mining starts: nothing may be processed
	sys := demoSystem()
	res, err := sys.MineContext(ctx, demoDocs(), Config{Rho: 1})
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PartialError, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cause = %v, want context.Canceled", err)
	}
	if pe.Result != res || res == nil {
		t.Fatal("PartialError must carry the returned result")
	}
	if pe.Documents != 0 || res.Stats().Documents != 0 {
		t.Errorf("pre-cancelled mine processed %d documents", pe.Documents)
	}
}

func TestQuarantinedSurfacesInStats(t *testing.T) {
	// A healthy run reports no quarantine.
	res := demoSystem().Mine(demoDocs(), Config{Rho: 1})
	if q := res.Quarantined(); len(q) != 0 {
		t.Fatalf("healthy run quarantined %v", q)
	}
	if st := res.Stats(); st.QuarantinedDocs != 0 || strings.Contains(st.String(), "quarantined") {
		t.Fatalf("healthy stats advertise quarantine: %v", st)
	}
}

// jsonString renders s as a JSON string literal.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
