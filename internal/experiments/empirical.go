package experiments

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/crowd"
	"repro/internal/eval"
	"repro/internal/evidence"
	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/nlp/depparse"
	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
	"repro/internal/nlp/token"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/tagger"
)

// BuildWorld constructs a world over arbitrary specs (used by the
// empirical studies which run one spec at a time).
func BuildWorld(cfg WorldConfig, base *kb.KB, specs []corpus.Spec) *World {
	cfg = cfg.withDefaults()
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	snap := corpus.NewGenerator(base, specs, corpus.Config{
		Seed:  cfg.Seed + 100,
		Scale: cfg.Scale,
	}).Generate()
	res := pipeline.Run(snap.Documents, base, lex, pipeline.Config{Rho: cfg.Rho})
	collect := crowd.CollectCases
	if cfg.UniformCases {
		collect = crowd.CollectCasesUniform
	}
	cases := collect(base, specs, cfg.EntitiesPerCombo, workerPanel, cfg.Seed+200)
	return &World{KB: base, Lex: lex, Snapshot: snap, Result: res, Cases: cases}
}

// AttributeStudyRow is one entity of a Figure-3/13 style study.
type AttributeStudyRow struct {
	Entity    string
	Attribute float64
	Pos, Neg  int64
	MV        core.Opinion
	Model     core.Opinion
}

// AttributeStudyResult is a Figure-3/13 style comparison: majority vote
// vs probabilistic model against an objective attribute.
type AttributeStudyResult struct {
	Type, Property, Attribute string
	Rows                      []AttributeStudyRow
	// Spearman rank correlation between polarity and attribute, per
	// method, plus the fraction of entities each method decides.
	MVCorrelation    float64
	ModelCorrelation float64
	MVDecided        float64
	ModelDecided     float64
	// MVAccuracy / ModelAccuracy measure agreement with the latent
	// dominant opinion over ALL entities of the type; an undecided entity
	// counts as incorrect (the paper's core point: the model decides
	// every entity, majority vote cannot).
	MVAccuracy    float64
	ModelAccuracy float64
	// ZeroEvidence counts entities with no statements at all; the model
	// classifies them, majority vote cannot.
	ZeroEvidence int
}

// attributeStudy runs one empirical-study combination end to end.
func attributeStudy(cfg WorldConfig, base *kb.KB, spec corpus.Spec, attr string) AttributeStudyResult {
	w := BuildWorld(cfg, base, []corpus.Spec{spec})
	out := AttributeStudyResult{Type: spec.Type, Property: spec.Property, Attribute: attr}

	group, ok := w.Result.Group(spec.Type, spec.Property)
	var byEntity map[kb.EntityID]pipeline.EntityOpinion
	if ok {
		byEntity = map[kb.EntityID]pipeline.EntityOpinion{}
		for _, eo := range group.Entities {
			byEntity[eo.Entity] = eo
		}
	}

	var mvPol, modelPol, attrs []float64
	mv := baselines.MajorityVote{}
	mvRight, modelRight := 0, 0
	for _, id := range base.OfType(spec.Type) {
		e := base.Get(id)
		counts := w.Result.Store.Get(evidence.Key{Entity: id, Property: spec.Property})
		row := AttributeStudyRow{
			Entity:    e.Name,
			Attribute: e.Attr(attr, 0),
			Pos:       counts.Pos,
			Neg:       counts.Neg,
			MV:        mv.Decide(counts.Pos, counts.Neg),
			Model:     core.OpinionUnsolved,
		}
		if byEntity != nil {
			if eo, found := byEntity[id]; found {
				row.Model = eo.Opinion
			}
		}
		if counts.Total() == 0 {
			out.ZeroEvidence++
		}
		truth := spec.LatentTruth(e, "com")
		if row.MV != core.OpinionUnsolved && (row.MV == core.OpinionPositive) == truth {
			mvRight++
		}
		if row.Model != core.OpinionUnsolved && (row.Model == core.OpinionPositive) == truth {
			modelRight++
		}
		out.Rows = append(out.Rows, row)
		mvPol = append(mvPol, float64(row.MV))
		modelPol = append(modelPol, float64(row.Model))
		attrs = append(attrs, row.Attribute)
	}
	if n := len(out.Rows); n > 0 {
		out.MVAccuracy = float64(mvRight) / float64(n)
		out.ModelAccuracy = float64(modelRight) / float64(n)
	}
	sort.Slice(out.Rows, func(a, b int) bool { return out.Rows[a].Attribute < out.Rows[b].Attribute })

	out.MVCorrelation = stats.Spearman(mvPol, attrs)
	out.ModelCorrelation = stats.Spearman(modelPol, attrs)
	mvOps := make([]core.Opinion, len(out.Rows))
	moOps := make([]core.Opinion, len(out.Rows))
	for i, r := range out.Rows {
		mvOps[i], moOps[i] = r.MV, r.Model
	}
	out.MVDecided = eval.DecisionRate(mvOps)
	out.ModelDecided = eval.DecisionRate(moOps)
	return out
}

// Fig3 reproduces the Section-2 empirical study: the property "big" over
// the Californian cities, interpreting statement counts with majority vote
// (Figure 3c) versus the probabilistic model (Figure 3d).
func Fig3(cfg WorldConfig) AttributeStudyResult {
	base := kb.NewBuilder(cfg.withDefaults().Seed)
	base.CalifornianCities(461)
	return attributeStudy(cfg, base.KB(), corpus.Figure3Spec(), "population")
}

// Fig13 reproduces the Appendix-A studies: wealthy countries, big Swiss
// lakes, high British mountains.
func Fig13(cfg WorldConfig) []AttributeStudyResult {
	attrs := map[string]string{
		"country": "gdp_per_capita", "lake": "area_km2", "mountain": "height_m",
	}
	var out []AttributeStudyResult
	for _, spec := range corpus.AppendixASpecs() {
		b := kb.NewBuilder(cfg.withDefaults().Seed)
		switch spec.Type {
		case "country":
			b.Countries()
		case "lake":
			b.SwissLakes(45)
		case "mountain":
			b.BritishMountains(55)
		}
		// Web visibility follows size/wealth with noise: obscure little
		// lakes are simply never written about (the sparsity that defeats
		// majority voting in Appendix A).
		b.AssignProminence(spec.Type, attrs[spec.Type])
		out = append(out, attributeStudy(cfg, b.KB(), spec, attrs[spec.Type]))
	}
	return out
}

// Format renders the study summary (row detail elided to the extremes).
func (r AttributeStudyResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s vs %s: correlation MV %.2f vs model %.2f; accuracy MV %.2f vs model %.2f; decided MV %.0f%% vs model %.0f%%; %d zero-evidence entities\n",
		r.Property, r.Type, r.Attribute,
		r.MVCorrelation, r.ModelCorrelation,
		r.MVAccuracy, r.ModelAccuracy,
		100*r.MVDecided, 100*r.ModelDecided, r.ZeroEvidence)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "entity\tattr\tC+\tC-\tMV\tmodel")
	show := append([]AttributeStudyRow{}, r.Rows...)
	if len(show) > 12 {
		show = append(show[:6], show[len(show)-6:]...)
	}
	for _, row := range show {
		fmt.Fprintf(tw, "%s\t%.0f\t%d\t%d\t%s\t%s\n",
			row.Entity, row.Attribute, row.Pos, row.Neg, row.MV, row.Model)
	}
	tw.Flush()
	return b.String()
}

// Fig10Row is one animal of Figure 10.
type Fig10Row struct {
	Animal     string
	PaperVotes int // AMT votes reported in the paper (out of 20)
	SimVotes   int // votes of our simulated panel (out of 20)
}

// Fig10 compares the paper's reported AMT votes for "cute" over the 20
// figure animals with our simulated panel.
func Fig10(seed uint64) []Fig10Row {
	base := kb.Default(seed)
	var cuteSpec corpus.Spec
	for _, s := range corpus.Table2Specs() {
		if s.Type == "animal" && s.Property == "cute" {
			cuteSpec = s
		}
	}
	panel := crowd.NewPanel(20, seed+7)
	var rows []Fig10Row
	for _, id := range base.OfType("animal") {
		e := base.Get(id)
		votes := e.Attr("cute_votes", -1)
		if votes < 0 {
			continue // not a Figure-10 animal
		}
		j := panel.Collect(cuteSpec.LatentPosFraction(e, "com"))
		rows = append(rows, Fig10Row{
			Animal:     e.Name,
			PaperVotes: int(votes),
			SimVotes:   j.PositiveVotes,
		})
	}
	return rows
}

// FormatFig10 renders the vote comparison.
func FormatFig10(rows []Fig10Row) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "animal\tpaper votes\tsimulated votes")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\n", r.Animal, r.PaperVotes, r.SimVotes)
	}
	tw.Flush()
	return b.String()
}

// Fig6Result samples the two count distributions of Figure 6 under the
// Example-3 parameters (pA = 0.9, np+S = 100, np−S = 5).
type Fig6Result struct {
	Params core.Params
	// LogProbPositive[i][j] = log Pr(C+ = i·step, C− = j | D = +); same
	// grid for the negative-dominant distribution.
	PosGrid, NegGrid [][]float64
	Step             int
	MaxNeg           int
	// Example1Posterior is Pr(D=+ | ⟨60, 3⟩), the X of Figure 6.
	Example1Posterior float64
}

// Fig6 computes the grids.
func Fig6() Fig6Result {
	params := example3
	m := core.Model{Params: params}
	lpp, lnp, lpn, lnn := params.Lambdas()
	const step, maxPos, maxNeg = 10, 120, 10
	var pos, neg [][]float64
	for c := 0; c <= maxPos; c += step {
		var prow, nrow []float64
		for d := 0; d <= maxNeg; d++ {
			prow = append(prow, stats.LogPoissonPMF(c, lpp)+stats.LogPoissonPMF(d, lnp))
			nrow = append(nrow, stats.LogPoissonPMF(c, lpn)+stats.LogPoissonPMF(d, lnn))
		}
		pos = append(pos, prow)
		neg = append(neg, nrow)
	}
	return Fig6Result{
		Params: params, PosGrid: pos, NegGrid: neg, Step: step, MaxNeg: maxNeg,
		Example1Posterior: m.PosteriorPositive(core.Tuple{Pos: 60, Neg: 3}),
	}
}

// Format renders the grid summary.
func (r Fig6Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "λ++=%.1f λ−+=%.1f λ+−=%.1f λ−−=%.1f; Pr(D=+|60,3) = %.3f (paper: positive)\n",
		r.Params.PA*r.Params.NpPlus, (1-r.Params.PA)*r.Params.NpMinus,
		(1-r.Params.PA)*r.Params.NpPlus, r.Params.PA*r.Params.NpMinus,
		r.Example1Posterior)
	return b.String()
}

// Table1Row is one example extraction of Table 1.
type Table1Row struct {
	Statement string
	Pattern   string
	Entity    string
	Property  string
}

// Table1 runs the extraction pipeline over the paper's three example
// statements.
func Table1() []Table1Row {
	base := kb.New()
	base.Add(kb.Entity{Name: "snake", Type: "animal"})
	base.Add(kb.Entity{Name: "Chicago", Type: "city", Proper: true})
	base.Add(kb.Entity{Name: "soccer", Type: "sport"})
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	pt := pos.New(lex)
	dp := depparse.New(lex)
	et := tagger.New(base, lex)
	ex := extract.NewVersion(lex, extract.V4)

	inputs := []string{
		"Snakes are dangerous animals.",
		"Chicago is very big.",
		"Soccer is a fast and exciting sport.",
	}
	var rows []Table1Row
	var psc depparse.Scratch
	var tsc tagger.Scratch
	for _, text := range inputs {
		sents, _ := token.SplitSentencesInto(nil, nil, text)
		for _, sent := range sents {
			tagged := pt.TagInto(nil, sent)
			tree := dp.ParseInto(&psc, tagged)
			mentions := et.TagInto(nil, &tsc, tagged)
			for _, st := range ex.ExtractInto(nil, tree, mentions) {
				rows = append(rows, Table1Row{
					Statement: text,
					Pattern:   st.Pattern.String(),
					Entity:    base.Get(st.Entity).Name,
					Property:  st.Property,
				})
			}
		}
	}
	return rows
}

// FormatTable1 renders the example extractions.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "statement\tpattern\tentity\tproperty")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", r.Statement, r.Pattern, r.Entity, r.Property)
	}
	tw.Flush()
	return b.String()
}
