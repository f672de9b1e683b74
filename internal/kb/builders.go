package kb

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Builder assembles the synthetic knowledge base for the paper's
// evaluation domains. All generation is deterministic in the seed.
type Builder struct {
	kb  *KB
	rng *stats.RNG
}

// NewBuilder returns a builder seeded for deterministic generation.
func NewBuilder(seed uint64) *Builder {
	return &Builder{kb: New(), rng: stats.NewRNG(seed)}
}

// KB returns the knowledge base built so far.
func (b *Builder) KB() *KB { return b.kb }

// AssignProminence gives every entity of the type a long-tailed
// "prominence" attribute ranked by the named attribute descending. See
// setProminenceByRank for the profile.
func (b *Builder) AssignProminence(typ, attr string) {
	b.setProminenceByRankJitter(typ, func(e *Entity) float64 { return e.Attr(attr, 0) }, 0.25)
}

// setProminenceByRank assigns each entity of the type a "prominence"
// attribute 1/(rank+1)^0.6, ranked by the key descending — the long-tail
// visibility profile of real web mentions (Figure 9(a): most entities are
// rarely written about). Entities keep any prominence already set.
func (b *Builder) setProminenceByRank(typ string, key func(e *Entity) float64) {
	b.setProminenceByRankJitter(typ, key, 0.7)
}

func (b *Builder) setProminenceByRankJitter(typ string, key func(e *Entity) float64, jitter float64) {
	ids := append([]EntityID(nil), b.kb.OfType(typ)...)
	sort.SliceStable(ids, func(i, j int) bool {
		return key(b.kb.Get(ids[i])) > key(b.kb.Get(ids[j]))
	})
	for rank, id := range ids {
		if math.IsNaN(b.kb.Get(id).Attr("prominence", math.NaN())) {
			// Lognormal jitter decorrelates fame from the ranking proxy:
			// Palo Alto is famous but small, some big places are obscure.
			p := math.Pow(1/float64(rank+1), 0.6) * math.Exp(b.rng.Normal(0, jitter))
			if p > 1 {
				p = 1
			}
			b.kb.SetAttr(id, "prominence", p)
		}
	}
}

// Default builds the full evaluation knowledge base: the five Table-2
// domains, the three Appendix-A domains, and the Figure-3 Californian
// cities. Entity counts are scaled-down but structure-preserving.
func Default(seed uint64) *KB {
	b := NewBuilder(seed)
	b.CalifornianCities(461)
	b.Animals()
	b.Celebrities(60)
	b.Professions()
	b.Sports()
	b.Countries()
	b.SwissLakes(45)
	b.BritishMountains(55)
	// Web visibility: cities by size, celebrities by fame, everything else
	// by a type-specific salience proxy; all long-tailed.
	b.setProminenceByRank("city", func(e *Entity) float64 { return e.Attr("population", 0) })
	b.setProminenceByRank("celebrity", func(e *Entity) float64 { return e.Attr("fame", 0) })
	b.setProminenceByRank("animal", func(e *Entity) float64 {
		return e.Attr("cuteness", 0) + e.Attr("ferocity", 0)
	})
	b.setProminenceByRank("profession", func(e *Entity) float64 { return 1 - e.Attr("scarcity", 0) })
	b.setProminenceByRank("sport", func(e *Entity) float64 { return e.Attr("popularity", 0) })
	b.setProminenceByRank("country", func(e *Entity) float64 { return e.Attr("gdp_per_capita", 0) })
	b.setProminenceByRank("lake", func(e *Entity) float64 { return e.Attr("area_km2", 0) })
	b.setProminenceByRank("mountain", func(e *Entity) float64 { return e.Attr("height_m", 0) })
	return b.KB()
}

// realCACities are well-known Californian city names seeded with plausible
// populations; the remainder of the 461 is generated synthetically.
var realCACities = []struct {
	name string
	pop  float64
}{
	{"Los Angeles", 3900000}, {"San Diego", 1380000}, {"San Jose", 1030000},
	{"San Francisco", 840000}, {"Fresno", 520000}, {"Sacramento", 480000},
	{"Long Beach", 465000}, {"Oakland", 410000}, {"Bakersfield", 360000},
	{"Anaheim", 345000}, {"Santa Ana", 330000}, {"Riverside", 315000},
	{"Stockton", 300000}, {"Irvine", 250000}, {"Chula Vista", 248000},
	{"Fremont", 225000}, {"Santa Clarita", 210000}, {"San Bernardino", 209000},
	{"Modesto", 204000}, {"Fontana", 196000}, {"Oxnard", 197000},
	{"Moreno Valley", 193000}, {"Glendale", 191000}, {"Huntington Beach", 189000},
	{"Santa Rosa", 167000}, {"Ontario", 163000}, {"Elk Grove", 153000},
	{"Garden Grove", 170000}, {"Oceanside", 167000}, {"Rancho Cucamonga", 165000},
	{"Palo Alto", 64000}, {"Santa Barbara", 88000}, {"Berkeley", 112000},
	{"Pasadena", 137000}, {"Torrance", 145000}, {"Sunnyvale", 140000},
	{"Santa Monica", 89000}, {"Carlsbad", 105000}, {"Ventura", 106000},
	{"Cupertino", 58000}, {"Napa", 77000}, {"Monterey", 28000},
	{"Sausalito", 7100}, {"Calistoga", 5200}, {"Ferndale", 1370},
}

var citySyllA = []string{"Al", "Bel", "Cal", "Del", "Esca", "Fair", "Glen",
	"Hart", "Indi", "Jas", "Kel", "Lor", "Mira", "Nor", "Oak", "Pal", "Quin",
	"Ross", "Sal", "Tem", "Ula", "Ver", "Wal", "Yor", "Zan", "Bur", "Cor",
	"Dun", "Elm", "Fal"}
var citySyllB = []string{"ada", "brook", "crest", "dale", "field", "ford",
	"grove", "ham", "land", "mont", "port", "ridge", "side", "ton", "ville",
	"wood", "view", "bury", "ley", "mere"}
var cityPrefix = []string{"", "", "", "", "San ", "Santa ", "El ", "Los ",
	"North ", "South ", "East ", "West ", "New ", "Port ", "Fort "}

// CalifornianCities builds n cities of type "city" with log-spread
// populations (Figure 3's x-axis). A handful of names are flagged
// Ambiguous, mirroring the 11/23 ambiguity discard of Section 2.
func (b *Builder) CalifornianCities(n int) {
	seen := map[string]bool{}
	add := func(name string, pop float64, ambiguous bool) {
		if seen[strings.ToLower(name)] {
			return
		}
		seen[strings.ToLower(name)] = true
		id := b.kb.Add(Entity{Name: name, Type: "city", Proper: true, Ambiguous: ambiguous})
		b.kb.SetAttr(id, "population", pop)
	}
	for _, c := range realCACities {
		if len(seen) >= n {
			break
		}
		// "Ontario" and "Glendale" collide with places elsewhere; "Orange"
		// style common-word collisions are marked ambiguous.
		ambiguous := c.name == "Ontario" || c.name == "Glendale"
		add(c.name, c.pop, ambiguous)
	}
	for len(seen) < n {
		name := cityPrefix[b.rng.Intn(len(cityPrefix))] +
			citySyllA[b.rng.Intn(len(citySyllA))] +
			citySyllB[b.rng.Intn(len(citySyllB))]
		// Log-uniform population between 300 and 2,000,000.
		pop := math.Exp(b.rng.Float64()*(math.Log(2e6)-math.Log(300)) + math.Log(300))
		add(name, math.Round(pop), b.rng.Bernoulli(0.02))
	}
}

// figure10Animals are the 20 animals of the paper's Figure 10 with the
// AMT "cute" vote counts the figure reports (out of 20 workers).
var figure10Animals = []struct {
	name      string
	cuteVotes int
}{
	{"pony", 19}, {"spider", 1}, {"koala", 20}, {"rat", 4},
	{"scorpion", 1}, {"crow", 5}, {"kitten", 20}, {"monkey", 15},
	{"octopus", 6}, {"beaver", 13}, {"goose", 9}, {"tiger", 12},
	{"moose", 8}, {"frog", 7}, {"grizzly bear", 10}, {"alligator", 3},
	{"puppy", 20}, {"camel", 9}, {"white shark", 2}, {"lion", 13},
}

// extraAnimals extends the animal domain beyond the Figure-10 sample.
// weight in kg, ferocity and cuteness in [0,1] act as the objective
// anchors the world model derives latent dominant opinions from.
var extraAnimals = []struct {
	name               string
	weight             float64
	ferocity, cuteness float64
}{
	{"dog", 30, 0.25, 0.85}, {"cat", 4.5, 0.2, 0.9}, {"rabbit", 2, 0.05, 0.9},
	{"hamster", 0.03, 0.02, 0.9}, {"snake", 5, 0.75, 0.1},
	{"wolf", 45, 0.8, 0.45}, {"fox", 8, 0.4, 0.7}, {"deer", 90, 0.1, 0.75},
	{"elephant", 5000, 0.4, 0.65}, {"giraffe", 1200, 0.1, 0.65},
	{"hippo", 1800, 0.85, 0.3}, {"rhino", 2300, 0.7, 0.25},
	{"panda", 110, 0.15, 0.95}, {"penguin", 25, 0.05, 0.9},
	{"dolphin", 200, 0.1, 0.8}, {"whale", 30000, 0.1, 0.5},
	{"eagle", 6, 0.6, 0.5}, {"owl", 2, 0.35, 0.75},
	{"crocodile", 500, 0.95, 0.1}, {"cobra", 6, 0.9, 0.08},
	{"tarantula", 0.09, 0.5, 0.05}, {"wasp", 0.0001, 0.55, 0.03},
	{"bee", 0.0001, 0.3, 0.4}, {"butterfly", 0.0005, 0.01, 0.8},
	{"squirrel", 0.5, 0.05, 0.85}, {"hedgehog", 0.8, 0.05, 0.9},
	{"otter", 10, 0.1, 0.92}, {"seal", 120, 0.1, 0.8},
	{"walrus", 1200, 0.3, 0.4}, {"bat", 0.05, 0.2, 0.25},
	{"pig", 150, 0.1, 0.55}, {"goat", 60, 0.15, 0.6},
	{"sheep", 80, 0.02, 0.65}, {"cow", 600, 0.05, 0.5},
	{"horse", 500, 0.15, 0.7}, {"donkey", 250, 0.05, 0.6},
	{"chicken", 2.5, 0.05, 0.45}, {"duck", 1.5, 0.05, 0.65},
	{"swan", 10, 0.3, 0.7}, {"peacock", 5, 0.1, 0.7},
	{"leopard", 60, 0.9, 0.4}, {"cheetah", 50, 0.8, 0.5},
	{"jaguar", 90, 0.9, 0.35}, {"hyena", 50, 0.8, 0.15},
	{"gorilla", 160, 0.55, 0.45}, {"chimpanzee", 50, 0.45, 0.6},
	{"lemur", 2.2, 0.05, 0.8}, {"sloth", 5, 0.01, 0.8},
	{"armadillo", 5, 0.05, 0.4}, {"porcupine", 10, 0.2, 0.35},
	{"skunk", 3, 0.15, 0.4}, {"raccoon", 8, 0.25, 0.6},
	{"jellyfish", 0.2, 0.5, 0.15}, {"piranha", 1, 0.85, 0.05},
	{"mosquito", 0.000002, 0.6, 0.01}, {"ant", 0.000003, 0.1, 0.1},
}

// Animals builds the animal domain: the 20 Figure-10 animals (with their
// reported AMT cute votes stored as an attribute) plus a broader set.
func (b *Builder) Animals() {
	f10Weights := map[string]float64{
		"pony": 200, "spider": 0.02, "koala": 10, "rat": 0.3,
		"scorpion": 0.03, "crow": 0.5, "kitten": 1, "monkey": 8,
		"octopus": 15, "beaver": 20, "goose": 4, "tiger": 220,
		"moose": 450, "frog": 0.05, "grizzly bear": 300, "alligator": 360,
		"puppy": 4, "camel": 500, "white shark": 1100, "lion": 190,
	}
	f10Ferocity := map[string]float64{
		"pony": 0.05, "spider": 0.5, "koala": 0.1, "rat": 0.3,
		"scorpion": 0.7, "crow": 0.2, "kitten": 0.02, "monkey": 0.3,
		"octopus": 0.25, "beaver": 0.15, "goose": 0.35, "tiger": 0.95,
		"moose": 0.5, "frog": 0.02, "grizzly bear": 0.9, "alligator": 0.95,
		"puppy": 0.02, "camel": 0.2, "white shark": 0.98, "lion": 0.95,
	}
	for _, a := range figure10Animals {
		id := b.kb.Add(Entity{Name: a.name, Type: "animal"})
		b.kb.SetAttr(id, "weight_kg", f10Weights[a.name])
		b.kb.SetAttr(id, "ferocity", f10Ferocity[a.name])
		b.kb.SetAttr(id, "cuteness", float64(a.cuteVotes)/20)
		b.kb.SetAttr(id, "cute_votes", float64(a.cuteVotes))
	}
	for _, a := range extraAnimals {
		id := b.kb.Add(Entity{Name: a.name, Type: "animal"})
		b.kb.SetAttr(id, "weight_kg", a.weight)
		b.kb.SetAttr(id, "ferocity", a.ferocity)
		b.kb.SetAttr(id, "cuteness", a.cuteness)
	}
}

var celebFirst = []string{"Ava", "Ben", "Cara", "Dex", "Ella", "Finn",
	"Gia", "Hugo", "Iris", "Jack", "Kira", "Liam", "Mona", "Nico", "Opal",
	"Pax", "Quinn", "Rosa", "Seth", "Tara", "Uma", "Vito", "Wren", "Ximena",
	"Yara", "Zane"}
var celebLast = []string{"Archer", "Bellweather", "Castellan", "Draper",
	"Ellsworth", "Fairbanks", "Goldwyn", "Harrington", "Ives", "Jansen",
	"Kingsley", "Lockhart", "Merriweather", "Northcote", "Osborne",
	"Pemberton", "Quillfeather", "Ravenscroft", "Sinclair", "Thorne",
	"Underwood", "Vanterpool", "Whitlock", "Yardley", "Zimmerman"}

// Celebrities builds n synthetic celebrities with age and fame attributes.
func (b *Builder) Celebrities(n int) {
	seen := map[string]bool{}
	for len(seen) < n {
		name := celebFirst[b.rng.Intn(len(celebFirst))] + " " +
			celebLast[b.rng.Intn(len(celebLast))]
		if seen[strings.ToLower(name)] {
			continue
		}
		seen[strings.ToLower(name)] = true
		id := b.kb.Add(Entity{Name: name, Type: "celebrity", Proper: true})
		b.kb.SetAttr(id, "age", float64(b.rng.IntRange(17, 85)))
		b.kb.SetAttr(id, "fame", b.rng.Float64())
	}
}

// professions with risk (0-1), salary (relative), and scarcity (0-1).
var professions = []struct {
	name                   string
	risk, salary, scarcity float64
}{
	{"firefighter", 0.9, 0.5, 0.4}, {"police officer", 0.85, 0.5, 0.3},
	{"miner", 0.95, 0.45, 0.5}, {"soldier", 0.95, 0.4, 0.4},
	{"pilot", 0.6, 0.85, 0.6}, {"astronaut", 0.9, 0.9, 0.99},
	{"surgeon", 0.3, 0.95, 0.8}, {"doctor", 0.3, 0.9, 0.6},
	{"nurse", 0.35, 0.55, 0.3}, {"teacher", 0.1, 0.45, 0.2},
	{"librarian", 0.02, 0.4, 0.4}, {"accountant", 0.02, 0.6, 0.2},
	{"lawyer", 0.05, 0.85, 0.4}, {"engineer", 0.1, 0.8, 0.3},
	{"programmer", 0.02, 0.8, 0.3}, {"farmer", 0.5, 0.4, 0.3},
	{"fisherman", 0.85, 0.35, 0.5}, {"lumberjack", 0.9, 0.4, 0.6},
	{"electrician", 0.6, 0.6, 0.3}, {"plumber", 0.35, 0.55, 0.3},
	{"carpenter", 0.4, 0.5, 0.3}, {"chef", 0.25, 0.5, 0.25},
	{"waiter", 0.1, 0.3, 0.1}, {"journalist", 0.4, 0.5, 0.4},
	{"photographer", 0.15, 0.45, 0.3}, {"actor", 0.1, 0.5, 0.5},
	{"musician", 0.05, 0.45, 0.45}, {"dancer", 0.3, 0.4, 0.5},
	{"athlete", 0.55, 0.7, 0.7}, {"stuntman", 0.98, 0.55, 0.9},
	{"racer", 0.9, 0.7, 0.85}, {"bodyguard", 0.7, 0.5, 0.6},
	{"detective", 0.6, 0.6, 0.6}, {"scientist", 0.1, 0.7, 0.5},
	{"archaeologist", 0.3, 0.55, 0.8}, {"astronomer", 0.02, 0.65, 0.85},
	{"veterinarian", 0.25, 0.7, 0.5}, {"dentist", 0.05, 0.85, 0.4},
	{"pharmacist", 0.02, 0.75, 0.4}, {"paramedic", 0.65, 0.5, 0.4},
}

// Professions builds the profession domain.
func (b *Builder) Professions() {
	for _, p := range professions {
		id := b.kb.Add(Entity{Name: p.name, Type: "profession"})
		b.kb.SetAttr(id, "risk", p.risk)
		b.kb.SetAttr(id, "salary", p.salary)
		b.kb.SetAttr(id, "scarcity", p.scarcity)
	}
}

// sports with speed (0-1), risk (0-1), and popularity (0-1).
var sports = []struct {
	name                    string
	speed, risk, popularity float64
}{
	{"soccer", 0.7, 0.35, 0.98}, {"basketball", 0.8, 0.3, 0.9},
	{"tennis", 0.75, 0.15, 0.8}, {"baseball", 0.5, 0.2, 0.75},
	{"cricket", 0.45, 0.2, 0.8}, {"rugby", 0.7, 0.8, 0.6},
	{"hockey", 0.85, 0.7, 0.6}, {"golf", 0.15, 0.05, 0.6},
	{"chess", 0.05, 0.01, 0.5}, {"boxing", 0.8, 0.95, 0.55},
	{"wrestling", 0.6, 0.7, 0.45}, {"skiing", 0.9, 0.75, 0.55},
	{"snowboarding", 0.9, 0.75, 0.5}, {"surfing", 0.8, 0.7, 0.5},
	{"skateboarding", 0.8, 0.65, 0.45}, {"climbing", 0.3, 0.85, 0.4},
	{"cycling", 0.75, 0.5, 0.65}, {"running", 0.6, 0.15, 0.7},
	{"swimming", 0.5, 0.2, 0.7}, {"diving", 0.4, 0.6, 0.35},
	{"gymnastics", 0.7, 0.55, 0.45}, {"volleyball", 0.65, 0.15, 0.6},
	{"badminton", 0.8, 0.05, 0.5}, {"table tennis", 0.9, 0.02, 0.5},
	{"archery", 0.2, 0.1, 0.3}, {"fencing", 0.85, 0.25, 0.3},
	{"rowing", 0.5, 0.2, 0.3}, {"sailing", 0.4, 0.45, 0.3},
	{"karate", 0.75, 0.5, 0.4}, {"judo", 0.7, 0.5, 0.4},
	{"motocross", 0.95, 0.95, 0.35}, {"parkour", 0.85, 0.9, 0.3},
	{"skydiving", 0.95, 0.98, 0.25}, {"bungee jumping", 0.9, 0.95, 0.2},
	{"darts", 0.1, 0.01, 0.35}, {"bowling", 0.2, 0.02, 0.45},
	{"billiards", 0.1, 0.01, 0.4}, {"polo", 0.7, 0.6, 0.15},
	{"lacrosse", 0.75, 0.5, 0.25}, {"handball", 0.75, 0.3, 0.35},
}

// Sports builds the sport domain.
func (b *Builder) Sports() {
	for _, s := range sports {
		id := b.kb.Add(Entity{Name: s.name, Type: "sport"})
		b.kb.SetAttr(id, "speed", s.speed)
		b.kb.SetAttr(id, "risk", s.risk)
		b.kb.SetAttr(id, "popularity", s.popularity)
	}
}

// countries with approximate 2013 GDP per capita in USD (Appendix A's
// "wealthy country" proxy).
var countries = []struct {
	name string
	gdp  float64
}{
	{"Luxembourg", 110000}, {"Norway", 100000}, {"Switzerland", 85000},
	{"Australia", 68000}, {"Denmark", 59000}, {"Sweden", 58000},
	{"Singapore", 55000}, {"United States", 53000}, {"Canada", 52000},
	{"Austria", 50000}, {"Netherlands", 51000}, {"Ireland", 51000},
	{"Finland", 49000}, {"Iceland", 47000}, {"Belgium", 46000},
	{"Germany", 45000}, {"France", 44000}, {"New Zealand", 42000},
	{"United Kingdom", 41000}, {"Japan", 38000}, {"Italy", 35000},
	{"Israel", 36000}, {"Spain", 29000}, {"South Korea", 26000},
	{"Slovenia", 23000}, {"Greece", 21000}, {"Portugal", 21000},
	{"Czechia", 19000}, {"Estonia", 19000}, {"Slovakia", 18000},
	{"Chile", 15500}, {"Uruguay", 16000}, {"Poland", 13600},
	{"Hungary", 13500}, {"Croatia", 13500}, {"Russia", 14600},
	{"Brazil", 11200}, {"Turkey", 10800}, {"Mexico", 10300},
	{"Argentina", 14700}, {"Malaysia", 10500}, {"Romania", 9500},
	{"Kazakhstan", 13600}, {"Bulgaria", 7500}, {"China", 6800},
	{"Thailand", 6200}, {"Colombia", 8000}, {"Peru", 6600},
	{"Ecuador", 6000}, {"South Africa", 6600}, {"Serbia", 6100},
	{"Jordan", 5200}, {"Albania", 4400}, {"Indonesia", 3600},
	{"Ukraine", 4000}, {"Morocco", 3100}, {"Philippines", 2800},
	{"Egypt", 3200}, {"Vietnam", 1900}, {"India", 1500},
	{"Nigeria", 3000}, {"Kenya", 1200}, {"Ghana", 1800},
	{"Bangladesh", 1000}, {"Pakistan", 1300}, {"Cambodia", 1000},
	{"Nepal", 700}, {"Tanzania", 900}, {"Uganda", 600},
	{"Ethiopia", 500}, {"Mozambique", 600}, {"Madagascar", 460},
	{"Malawi", 270}, {"Burundi", 260}, {"Niger", 410},
	{"Chad", 1050}, {"Mali", 700}, {"Haiti", 800},
	{"Bolivia", 2900}, {"Honduras", 2300}, {"Nicaragua", 1800},
	{"Paraguay", 4200}, {"Georgia", 3600}, {"Armenia", 3500},
	{"Mongolia", 4400}, {"Laos", 1600}, {"Myanmar", 1200},
	{"Sri Lanka", 3200}, {"Tunisia", 4200}, {"Algeria", 5400},
	{"Lebanon", 9900}, {"Oman", 21000}, {"Qatar", 94000},
	{"Kuwait", 52000}, {"Bahrain", 24000}, {"Saudi Arabia", 26000},
	{"Panama", 11000}, {"Costa Rica", 10200}, {"Jamaica", 5200},
	{"Cuba", 6800}, {"Venezuela", 12200}, {"Belarus", 7600},
	{"Lithuania", 15700}, {"Latvia", 15000}, {"Moldova", 2200},
	{"Azerbaijan", 7800}, {"Uzbekistan", 1900}, {"Turkmenistan", 7100},
	{"Fiji", 4600}, {"Samoa", 4000}, {"Bhutan", 2500},
	{"Botswana", 7300}, {"Namibia", 5700}, {"Zambia", 1800},
	{"Zimbabwe", 1000}, {"Senegal", 1000}, {"Cameroon", 1300},
}

// Countries builds the country domain (Appendix A, "wealthy").
func (b *Builder) Countries() {
	for _, c := range countries {
		id := b.kb.Add(Entity{Name: c.name, Type: "country", Proper: true})
		b.kb.SetAttr(id, "gdp_per_capita", c.gdp)
	}
}

// realSwissLakes with surface area in square kilometres.
var realSwissLakes = []struct {
	name string
	area float64
}{
	{"Lake Geneva", 580}, {"Lake Constance", 536}, {"Lake Neuchatel", 218},
	{"Lake Maggiore", 212}, {"Lake Lucerne", 114}, {"Lake Zurich", 88},
	{"Lake Lugano", 49}, {"Lake Thun", 48}, {"Lake Biel", 39},
	{"Lake Zug", 38}, {"Lake Brienz", 30}, {"Lake Walen", 24},
	{"Lake Murten", 23}, {"Lake Sempach", 14}, {"Lake Sils", 4.1},
	{"Lake Hallwil", 10}, {"Lake Greifen", 8.5}, {"Lake Sarnen", 7.4},
	{"Lake Aegeri", 7.2}, {"Lake Baldegg", 5.2}, {"Lake Silvaplana", 2.7},
	{"Lake Lauerz", 3.1}, {"Lake Pfaeffikon", 3.3}, {"Lake Oeschinen", 1.1},
	{"Lake Klontal", 3.3}, {"Lake Cauma", 0.1}, {"Lake Blausee", 0.007},
}

var lakeStems = []string{"Brunnen", "Gletscher", "Felsen", "Tannen",
	"Birken", "Adler", "Stein", "Wolken", "Nebel", "Silber", "Gold",
	"Kristall", "Schatten", "Morgen", "Abend", "Winter", "Alpen"}

// SwissLakes builds n lakes of type "lake" with area_km2 (Appendix A,
// "big").
func (b *Builder) SwissLakes(n int) {
	seen := map[string]bool{}
	add := func(name string, area float64) {
		if seen[strings.ToLower(name)] || len(seen) >= n {
			return
		}
		seen[strings.ToLower(name)] = true
		id := b.kb.Add(Entity{Name: name, Type: "lake", Proper: true})
		b.kb.SetAttr(id, "area_km2", area)
	}
	for _, l := range realSwissLakes {
		add(l.name, l.area)
	}
	for len(seen) < n {
		name := "Lake " + lakeStems[b.rng.Intn(len(lakeStems))] +
			[]string{"see", "bach", "tal"}[b.rng.Intn(3)]
		area := math.Exp(b.rng.Float64()*(math.Log(50)-math.Log(0.01)) + math.Log(0.01))
		add(name, math.Round(area*100)/100)
	}
}

// realBritishMountains with relative height (prominence) in metres.
var realBritishMountains = []struct {
	name   string
	height float64
}{
	{"Ben Nevis", 1345}, {"Ben Macdui", 950}, {"Snowdon", 1038},
	{"Scafell Pike", 912}, {"Carnedd Llewelyn", 749}, {"Ben Lomond", 834},
	{"Helvellyn", 712}, {"Cadair Idris", 608}, {"Goat Fell", 874},
	{"Slieve Donard", 822}, {"Pen y Fan", 672}, {"Skiddaw", 709},
	{"Ben More", 966}, {"Schiehallion", 716}, {"Cairn Gorm", 651},
	{"The Cheviot", 556}, {"Plynlimon", 530}, {"Cross Fell", 651},
	{"Mickle Fell", 513}, {"Worcestershire Beacon", 389},
	{"Kinder Scout", 497}, {"Black Mountain", 585}, {"Moel Siabod", 553},
	{"Tryfan", 557}, {"Crib Goch", 457},
}

var mountainStems = []string{"Raven", "Eagle", "Thunder", "Mist", "Stone",
	"Iron", "Grey", "Black", "White", "Red", "Wind", "Storm", "Heather",
	"Bracken", "Craggy"}

// BritishMountains builds n mountains of type "mountain" with height_m
// (Appendix A, "high").
func (b *Builder) BritishMountains(n int) {
	seen := map[string]bool{}
	add := func(name string, h float64) {
		if seen[strings.ToLower(name)] || len(seen) >= n {
			return
		}
		seen[strings.ToLower(name)] = true
		id := b.kb.Add(Entity{Name: name, Type: "mountain", Proper: true})
		b.kb.SetAttr(id, "height_m", h)
	}
	for _, m := range realBritishMountains {
		add(m.name, m.height)
	}
	for len(seen) < n {
		name := mountainStems[b.rng.Intn(len(mountainStems))] +
			[]string{" Pike", " Fell", " Crag", " Tor", " Ridge"}[b.rng.Intn(5)]
		h := 150 + b.rng.Float64()*1100
		add(name, math.Round(h))
	}
}

func titleCase(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

var randomTypeStems = []string{"gadget", "artifact", "remedy", "vessel",
	"garment", "beverage", "mineral", "herb", "engine", "fabric",
	"ornament", "utensil", "melody", "ritual", "pastry", "toy",
	"vehicle", "device", "compound", "specimen"}

var randomNameSyllables = []string{"ka", "lo", "mi", "ren", "tav", "sol",
	"ur", "vex", "wyn", "zor", "bel", "cor", "dra", "fen", "gal", "hol",
	"jin", "pry", "qua", "sten"}

// RandomDomains generates nTypes synthetic entity types with
// entitiesPerType entities each — the long tail of very specific entities
// ("Hiatal hernia", "Ford Cougar") that Appendix D samples from. Each
// entity gets a "prominence" attribute in (0,1] following a Zipf-like
// decay, so most are rarely mentioned.
func (b *Builder) RandomDomains(nTypes, entitiesPerType int) []string {
	var types []string
	// One allocation for the entities: growing a slice this large by
	// appends keeps old and new arrays alive at once, which sets the peak.
	b.kb.entities = slices.Grow(b.kb.entities, nTypes*entitiesPerType)
	for t := 0; t < nTypes; t++ {
		typ := fmt.Sprintf("%s%d", randomTypeStems[t%len(randomTypeStems)], t/len(randomTypeStems))
		types = append(types, typ)
		suffix := " " + titleCase(typ)
		for e := 0; e < entitiesPerType; e++ {
			var sb strings.Builder
			sb.Grow(3*4 + len(suffix)) // up to three syllables of up to four letters
			k := 2 + b.rng.Intn(2)
			for s := 0; s < k; s++ {
				syl := randomNameSyllables[b.rng.Intn(len(randomNameSyllables))]
				if s == 0 { // the syllables are lower-case ASCII
					sb.WriteByte(syl[0] - 'a' + 'A')
					syl = syl[1:]
				}
				sb.WriteString(syl)
			}
			sb.WriteString(suffix)
			id := b.kb.Add(Entity{Name: sb.String(), Type: typ, Proper: true})
			b.kb.SetAttr(id, "prominence", 1/math.Pow(float64(e+1), 2.0))
			b.kb.SetAttr(id, "latent", b.rng.Float64())
		}
	}
	return types
}
