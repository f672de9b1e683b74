// Package corpus generates the synthetic web snapshot the reproduction
// runs on — the substitute for the paper's 40 TB annotated crawl.
//
// The generator simulates content authoring exactly along the paper's user
// model (Figure 7): each (type, property) combination has a latent
// dominant opinion per entity, an agreement probability pA*, and
// polarity-dependent emission rates; every emitted opinion is rendered as
// a real English sentence (covering all three extraction patterns,
// negations including double negation, broad-copula variants, and
// non-intrinsic distractors), so the full NLP pipeline — not just the
// model — is exercised end to end, and the latent truth is known for
// every experiment.
package corpus

import (
	"fmt"
	"math"

	"repro/internal/kb"
	"repro/internal/stats"
)

// Document is one web page, assumed to be written by a single author (the
// paper's independence assumption: two random pages share an author with
// negligible probability).
type Document struct {
	URL    string
	Domain string // top-level domain, e.g. "com", "cn" — input restriction handle
	Author int
	Text   string
}

// Spec defines the latent ground truth and authoring behaviour for one
// (type, property) combination.
type Spec struct {
	Type     string
	Property string // a bare adjective ("big"); degree adverbs are added in rendering

	// PA is the latent agreement probability (fraction of the population
	// sharing the dominant opinion).
	PA float64
	// NpPlus / NpMinus are the aggregate emission rates n·p+S and n·p−S:
	// the expected number of positive (negative) statements contributed by
	// the whole author population for an entity everyone holds a positive
	// (negative) opinion about.
	NpPlus  float64
	NpMinus float64
	// Truth returns the latent dominant opinion for an entity, optionally
	// depending on the authoring region (domain). Must be deterministic.
	// May be nil when PosFraction is set (then Truth is PosFraction ≥ ½).
	Truth func(e *kb.Entity, domain string) bool
	// PosFraction optionally refines the latent opinion distribution to a
	// per-entity positive fraction (e.g. a sigmoid in an objective
	// attribute): kittens are cute to 98% of the population, tigers to
	// 60% — the per-entity agreement spread visible in Figure 10. When
	// nil, the fraction is the two-level pA / 1−pA of the paper's model.
	PosFraction func(e *kb.Entity, domain string) float64
	// PopularityWeighting scales emission by the entity's "prominence"
	// attribute, introducing per-entity visibility differences the model
	// does NOT assume — a deliberate robustness stressor and the source of
	// the long-tail shapes of Figure 9.
	PopularityWeighting bool
}

// LatentPosFraction returns the latent fraction of the population holding
// a positive opinion on the entity. The crowd simulator samples workers
// from it, and the generator emits statements proportionally to it.
func (s *Spec) LatentPosFraction(e *kb.Entity, domain string) float64 {
	if s.PosFraction != nil {
		f := s.PosFraction(e, domain)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		return f
	}
	if s.latentTruth(e, domain) {
		return s.PA
	}
	return 1 - s.PA
}

// latentTruth resolves the dominant opinion: the explicit Truth function
// when given, otherwise the majority side of PosFraction.
func (s *Spec) latentTruth(e *kb.Entity, domain string) bool {
	if s.Truth != nil {
		return s.Truth(e, domain)
	}
	return s.PosFraction(e, domain) >= 0.5
}

// LatentTruth is the exported form of the dominant-opinion resolution.
func (s *Spec) LatentTruth(e *kb.Entity, domain string) bool {
	return s.latentTruth(e, domain)
}

// DomainShare is one authoring region with its share of the author
// population.
type DomainShare struct {
	Domain string
	Share  float64
}

// Config controls snapshot generation.
type Config struct {
	Seed uint64
	// Scale multiplies every emission rate; 1 uses the specs as given.
	Scale float64
	// Domains lists the authoring regions. Empty means a single "com".
	Domains []DomainShare
	// NoiseRatio is the number of noise/distractor sentences generated per
	// evidence sentence (default 0.5).
	NoiseRatio float64
	// BroadCopulaFrac is the fraction of evidence sentences rendered with
	// a broad copula (seems/looks/...) instead of "to be" — signal that
	// only pattern versions 1-2 capture (default 0.08).
	BroadCopulaFrac float64
	// DoubleNegFrac is the fraction of POSITIVE statements rendered as a
	// double negation (default 0.02).
	DoubleNegFrac float64
	// NonIntrinsicFrac is the fraction of noise sentences that are aspect
	// statements ("X is bad for parking") which checks must filter
	// (default 0.4, within the noise budget).
	NonIntrinsicFrac float64
	// AntonymFrac enables antonym-style authoring (off by default): this
	// fraction of negative opinions is voiced as a positive assertion of
	// an antonym ("Palo Alto is small" instead of "Palo Alto is not
	// big"), and entities in the controversial middle band additionally
	// attract "X is not <antonym>" statements — the linguistic reality
	// behind the paper's Section-4 decision not to fold antonyms into
	// negations. Used by the antonym ablation.
	AntonymFrac float64
	// AuthorCompression models the gap between the authoring population
	// and the survey population (Section 1: "users with one specific
	// opinion are more likely to express themselves"): the authors'
	// positive-opinion fraction is pulled toward ½ by this factor
	// relative to the latent population fraction. 1 means authors mirror
	// the population exactly; the default 0.8 leaves a small noise floor
	// of contrarian authors, reproducing the paper's observation that
	// even entities with a clear negative dominant opinion keep
	// collecting stray positive statements (Figure 3).
	AuthorCompression float64
	// MinSentencesPerDoc/MaxSentencesPerDoc bound document length.
	MinSentencesPerDoc int
	MaxSentencesPerDoc int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if len(c.Domains) == 0 {
		c.Domains = []DomainShare{{Domain: "com", Share: 1}}
	}
	if c.NoiseRatio == 0 {
		c.NoiseRatio = 0.5
	}
	if c.BroadCopulaFrac == 0 {
		c.BroadCopulaFrac = 0.08
	}
	if c.DoubleNegFrac == 0 {
		c.DoubleNegFrac = 0.02
	}
	if c.NonIntrinsicFrac == 0 {
		c.NonIntrinsicFrac = 0.4
	}
	if c.AuthorCompression == 0 {
		c.AuthorCompression = 0.8
	}
	if c.MinSentencesPerDoc == 0 {
		c.MinSentencesPerDoc = 1
	}
	if c.MaxSentencesPerDoc == 0 {
		c.MaxSentencesPerDoc = 4
	}
	return c
}

// TruthKey identifies a latent (entity, property) opinion.
type TruthKey struct {
	Entity   kb.EntityID
	Property string
}

// Snapshot is a generated corpus plus its latent ground truth.
type Snapshot struct {
	Documents []Document
	Specs     []Spec
	// Truth is the latent dominant opinion per (entity, property),
	// aggregated across domains by author share.
	Truth map[TruthKey]bool
	// Statements counts the evidence sentences that were rendered (before
	// any extraction loss).
	Statements int
}

// DocumentsInDomain filters the snapshot by top-level domain — the paper's
// mechanism for region-specific results.
func (s *Snapshot) DocumentsInDomain(domain string) []Document {
	var out []Document
	for _, d := range s.Documents {
		if d.Domain == domain {
			out = append(out, d)
		}
	}
	return out
}

// SigmoidFraction builds a per-entity positive-opinion fraction from an
// objective attribute: ½ at the threshold, approaching maxAgree for
// attribute values far above it and 1−maxAgree far below. width is the
// attribute distance over which opinion shifts.
func SigmoidFraction(attr string, threshold, width, maxAgree float64) func(e *kb.Entity, domain string) float64 {
	return func(e *kb.Entity, domain string) float64 {
		x := (e.Attr(attr, 0) - threshold) / width
		return (1 - maxAgree) + (2*maxAgree-1)*stats.Sigmoid(x)
	}
}

// LogSigmoidFraction is SigmoidFraction on a logarithmic attribute scale
// (populations, areas): width is measured in decades.
func LogSigmoidFraction(attr string, threshold, decades, maxAgree float64) func(e *kb.Entity, domain string) float64 {
	return func(e *kb.Entity, domain string) float64 {
		v := e.Attr(attr, 0)
		if v <= 0 {
			return 1 - maxAgree
		}
		x := math.Log10(v/threshold) / decades
		return (1 - maxAgree) + (2*maxAgree-1)*stats.Sigmoid(4*x)
	}
}

// InvertFraction flips a fraction function (for antonym-leaning
// properties: "calm" is the inverse of crowded-ness).
func InvertFraction(f func(e *kb.Entity, domain string) float64) func(e *kb.Entity, domain string) float64 {
	return func(e *kb.Entity, domain string) float64 {
		return 1 - f(e, domain)
	}
}

// statementEvent is one author's decision to write a statement.
type statementEvent struct {
	spec     int
	entity   kb.EntityID
	positive bool
	domain   string
	// form selects the surface realisation: 0 = direct statement about
	// the property, 1 = positive antonym assertion ("X is small"),
	// 2 = negated antonym assertion ("X is not small").
	form int8
}

// Generator produces snapshots.
type Generator struct {
	base  *kb.KB
	specs []Spec
	cfg   Config
}

// NewGenerator returns a generator over the knowledge base and specs.
func NewGenerator(base *kb.KB, specs []Spec, cfg Config) *Generator {
	return &Generator{base: base, specs: specs, cfg: cfg.withDefaults()}
}

// Generate renders a full snapshot. Deterministic in Config.Seed.
func (g *Generator) Generate() *Snapshot {
	rng := stats.NewRNG(g.cfg.Seed)
	snap := &Snapshot{Specs: g.specs, Truth: map[TruthKey]bool{}}

	var events []statementEvent
	for si := range g.specs {
		spec := &g.specs[si]
		for _, id := range g.base.OfType(spec.Type) {
			e := g.base.Get(id)
			weight := 1.0
			if spec.PopularityWeighting {
				weight = e.Attr("prominence", 1)
			}
			posShare := 0.0
			for _, ds := range g.cfg.Domains {
				if spec.latentTruth(e, ds.Domain) {
					posShare += ds.Share
				}
				// f is the fraction of AUTHORS holding a positive opinion
				// — the population fraction compressed toward ½ (the
				// authoring population is noisier than the survey
				// population). Positive statements arrive at rate
				// n·p+S·f, negative ones at n·p−S·(1−f) — the generative
				// story of Figure 7, generalised to per-entity fractions.
				f := 0.5 + g.cfg.AuthorCompression*(spec.LatentPosFraction(e, ds.Domain)-0.5)
				lamPos := g.cfg.Scale * weight * ds.Share * spec.NpPlus * f
				lamNeg := g.cfg.Scale * weight * ds.Share * spec.NpMinus * (1 - f)
				for k := rng.Poisson(lamPos); k > 0; k-- {
					events = append(events, statementEvent{si, id, true, ds.Domain, 0})
				}
				for k := rng.Poisson(lamNeg); k > 0; k-- {
					form := int8(0)
					if g.cfg.AntonymFrac > 0 && rng.Bernoulli(g.cfg.AntonymFrac) {
						form = 1 // "X is small" instead of "X is not big"
					}
					events = append(events, statementEvent{si, id, false, ds.Domain, form})
				}
				if g.cfg.AntonymFrac > 0 {
					// Middle-band entities attract "X is not <antonym>"
					// statements — true, but NOT evidence that the primary
					// property applies (the paper's objection to naive
					// antonym folding).
					midness := 4 * f * (1 - f)
					lamMid := g.cfg.Scale * weight * ds.Share * spec.NpPlus * g.cfg.AntonymFrac * midness * 0.5
					for k := rng.Poisson(lamMid); k > 0; k-- {
						events = append(events, statementEvent{si, id, true, ds.Domain, 2})
					}
				}
			}
			snap.Truth[TruthKey{id, spec.Property}] = posShare >= 0.5
		}
	}
	snap.Statements = len(events)

	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })

	r := newRenderer(g.base, rng)
	var sentences []renderedSentence
	for _, ev := range events {
		spec := &g.specs[ev.spec]
		var text string
		if ev.form != 0 {
			text = r.antonymSentence(spec, g.base.Get(ev.entity), ev.form == 2)
			if text == "" { // property without a registered antonym
				text = r.evidenceSentence(spec, g.base.Get(ev.entity), ev.positive, g.cfg)
			}
		} else {
			text = r.evidenceSentence(spec, g.base.Get(ev.entity), ev.positive, g.cfg)
		}
		sentences = append(sentences, renderedSentence{text: text, domain: ev.domain})
	}
	nNoise := int(float64(len(events)) * g.cfg.NoiseRatio)
	for i := 0; i < nNoise; i++ {
		domain := g.pickDomain(rng)
		text := r.noiseSentence(g.specs, g.cfg)
		sentences = append(sentences, renderedSentence{text: text, domain: domain})
	}
	rng.Shuffle(len(sentences), func(i, j int) { sentences[i], sentences[j] = sentences[j], sentences[i] })

	g.packDocuments(snap, sentences, rng)
	return snap
}

type renderedSentence struct {
	text   string
	domain string
}

func (g *Generator) pickDomain(rng *stats.RNG) string {
	u := rng.Float64()
	acc := 0.0
	for _, ds := range g.cfg.Domains {
		acc += ds.Share
		if u < acc {
			return ds.Domain
		}
	}
	return g.cfg.Domains[len(g.cfg.Domains)-1].Domain
}

// packDocuments groups sentences (per domain, to keep documents regional)
// into documents of 1..MaxSentencesPerDoc sentences.
func (g *Generator) packDocuments(snap *Snapshot, sentences []renderedSentence, rng *stats.RNG) {
	byDomain := map[string][]string{}
	for _, s := range sentences {
		byDomain[s.domain] = append(byDomain[s.domain], s.text)
	}
	author := 0
	for _, ds := range g.cfg.Domains {
		texts := byDomain[ds.Domain]
		i := 0
		for i < len(texts) {
			n := rng.IntRange(g.cfg.MinSentencesPerDoc, g.cfg.MaxSentencesPerDoc)
			if i+n > len(texts) {
				n = len(texts) - i
			}
			body := ""
			for _, t := range texts[i : i+n] {
				if body != "" {
					body += " "
				}
				body += t
			}
			snap.Documents = append(snap.Documents, Document{
				URL:    fmt.Sprintf("http://site%d.example.%s/page1", author, ds.Domain),
				Domain: ds.Domain,
				Author: author,
				Text:   body,
			})
			author++
			i += n
		}
	}
}
