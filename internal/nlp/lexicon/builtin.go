package lexicon

// Default returns the built-in lexicon. The inventory is sized to the
// evaluation domains of the paper (Table 2, Figures 3 and 13) plus general
// free-text vocabulary; the knowledge base extends it with entity names at
// load time via AddNoun.
func Default() *Lexicon {
	l := &Lexicon{
		words:      map[string]Word{},
		forms:      make([]form, 1), // id 0: the unknown word
		subjective: map[string]bool{},
		antonyms:   map[string][]string{},
	}

	add := func(tag Tag, words ...string) {
		for _, w := range words {
			l.add(w, tag, false)
		}
	}
	// class adds the words under tag and marks them as members of the
	// closed classes in bits.
	class := func(tag Tag, bits uint8, words ...string) {
		add(tag, words...)
		for _, w := range words {
			l.mark(w, bits)
		}
	}

	// --- Closed classes -------------------------------------------------

	add(Det, "a", "an", "the", "this", "that", "these", "those", "some",
		"any", "every", "each", "all", "most", "many", "few", "several",
		"another", "such", "its", "my", "your", "his", "her", "their", "our")
	add(Prep, "in", "on", "at", "for", "with", "about", "of", "from", "to",
		"by", "near", "around", "among", "between", "during", "despite",
		"without", "within", "across", "like", "unlike", "as", "over",
		"under", "through", "against", "towards", "toward", "compared")
	add(Pron, "i", "you", "he", "she", "it", "we", "they", "me", "him",
		"them", "us", "everyone", "everybody", "someone", "somebody",
		"anyone", "nobody", "who", "which", "what")
	add(Conj, "and", "or", "but", "nor", "yet")
	add(Mark, "that", "because", "although", "though", "while", "since",
		"if", "when", "whether", "unless", "whereas")
	add(Num, "one", "two", "three", "four", "five", "six", "seven", "eight",
		"nine", "ten", "hundred", "thousand", "million", "billion")

	// Negations. "n't" is produced by the tokenizer when splitting
	// contractions (don't -> do + n't).
	class(Neg, classNegation, "not", "n't", "never", "no", "hardly",
		"barely", "scarcely", "neither", "nor", "cannot")

	// Copulas: forms of "to be" plus the broad copula class used by
	// extraction pattern versions 1-2 (Appendix B).
	copula := func(lemma string, bits uint8, forms ...string) {
		class(Verb, bits, forms...)
		for _, w := range forms {
			l.forms[l.words[w].ID].lemma = lemma
		}
	}
	copula("be", classCopula|classToBe, "is", "are", "was", "were", "be", "been", "being", "'s", "'re")
	// A slice, not a map: word ids follow the order of these calls.
	for _, v := range [][3]string{
		{"seem", "seems", "seemed"}, {"look", "looks", "looked"},
		{"appear", "appears", "appeared"}, {"become", "becomes", "became"},
		{"remain", "remains", "remained"}, {"stay", "stays", "stayed"},
		{"feel", "feels", "felt"}, {"sound", "sounds", "sounded"},
		{"get", "gets", "got"},
	} {
		copula(v[0], classCopula, v[:]...)
	}

	// Auxiliaries.
	add(Aux, "do", "does", "did", "have", "has", "had", "will", "would",
		"can", "could", "may", "might", "must", "should", "shall")

	// Opinion verbs introducing complement clauses.
	class(Verb, classOpinionVerb, "think", "thinks", "thought", "believe",
		"believes", "believed", "consider", "considers", "considered",
		"find", "finds", "found", "say", "says", "said", "feel", "feels",
		"felt", "agree", "agrees", "agreed", "doubt", "doubts", "doubted",
		"claim", "claims", "claimed", "know", "knows", "knew", "guess",
		"suppose", "reckon", "insist", "argue", "argues", "argued")

	// Common verbs (for noise sentences in the corpus).
	add(Verb, "visit", "visited", "visits", "live", "lives", "lived",
		"love", "loves", "loved", "hate", "hates", "hated", "like",
		"likes", "liked", "enjoy", "enjoys", "enjoyed", "see", "saw",
		"seen", "sees", "go", "goes", "went", "play", "plays", "played",
		"watch", "watches", "watched", "move", "moved", "moves", "grew",
		"grow", "grows", "eat", "eats", "ate", "sleep", "sleeps", "slept",
		"run", "runs", "ran", "travel", "travels", "traveled", "write",
		"writes", "wrote", "read", "reads", "recommend", "recommends",
		"recommended", "prefer", "prefers", "preferred", "met", "meet",
		"meets", "stayed", "work", "works", "worked")

	// --- Adverbs ---------------------------------------------------------

	add(Adv, "very", "really", "quite", "rather", "extremely", "incredibly",
		"truly", "so", "too", "highly", "fairly", "pretty", "densely",
		"sparsely", "remarkably", "surprisingly", "exceptionally",
		"especially", "particularly", "somewhat", "slightly", "absolutely",
		"totally", "completely", "utterly", "genuinely", "honestly",
		"definitely", "certainly", "probably", "perhaps", "maybe", "always",
		"often", "sometimes", "usually", "generally", "mostly", "still",
		"also", "just", "even", "only", "there", "here", "now", "then",
		"again", "already", "actually", "simply", "overall")

	// --- Adjectives -------------------------------------------------------
	// subj marks membership in the subjective inventory; pairs wire
	// antonyms symmetrically.
	subj := func(word string, antonyms ...string) { l.AddAdjective(word, true, antonyms...) }
	obj := func(word string, antonyms ...string) { l.AddAdjective(word, false, antonyms...) }

	// Table 2 properties.
	subj("dangerous", "safe", "harmless")
	subj("cute", "ugly")
	subj("big", "small", "tiny")
	subj("friendly", "hostile", "unfriendly")
	subj("deadly", "harmless")
	subj("cool", "lame")
	subj("crazy", "sane")
	subj("pretty", "ugly", "plain")
	subj("quiet", "loud", "noisy")
	subj("young", "old")
	subj("calm", "hectic", "chaotic")
	subj("cheap", "expensive", "pricey")
	subj("hectic", "calm")
	subj("multicultural", "homogeneous")
	subj("exciting", "boring", "dull")
	subj("rare", "common", "ubiquitous")
	subj("solid", "flimsy", "unstable")
	subj("vital", "trivial", "unimportant")
	subj("addictive")
	subj("boring", "exciting", "thrilling")
	subj("fast", "slow")
	subj("popular", "obscure", "unpopular")

	// Empirical-study properties (Section 2, Appendix A).
	subj("safe", "dangerous", "unsafe")
	subj("wealthy", "poor")
	subj("high", "low")
	subj("warm", "cold", "chilly")
	subj("major", "minor")
	subj("populated")

	// Antonym side of the pairs above plus general opinion adjectives.
	subj("small", "big", "large")
	subj("tiny", "huge")
	subj("ugly", "beautiful")
	subj("harmless", "deadly")
	subj("hostile")
	subj("unfriendly")
	subj("lame")
	subj("sane")
	subj("plain")
	subj("loud", "quiet")
	subj("noisy", "quiet")
	subj("old", "young", "new")
	subj("chaotic", "orderly")
	subj("expensive", "cheap")
	subj("pricey")
	subj("homogeneous")
	subj("dull", "vivid")
	subj("common", "rare")
	subj("ubiquitous")
	subj("flimsy")
	subj("unstable", "stable")
	subj("trivial", "vital")
	subj("unimportant", "important")
	subj("thrilling")
	subj("slow", "fast")
	subj("obscure", "famous")
	subj("unpopular")
	subj("poor", "wealthy", "rich")
	subj("rich", "poor")
	subj("low", "high")
	subj("cold", "warm", "hot")
	subj("chilly")
	subj("hot", "cold")
	subj("minor", "major")
	subj("unsafe", "safe")
	subj("beautiful", "ugly")
	subj("huge", "tiny")
	subj("large", "small")
	subj("famous", "obscure")
	subj("important", "unimportant")
	subj("new", "old")
	subj("stable", "unstable")
	subj("orderly", "chaotic")
	subj("vivid", "dull")
	subj("nice", "nasty")
	subj("nasty", "nice")
	subj("good", "bad")
	subj("bad", "good")
	subj("great", "terrible")
	subj("terrible", "great")
	subj("amazing", "awful")
	subj("awful", "amazing")
	subj("wonderful", "dreadful")
	subj("dreadful")
	subj("lovely")
	subj("charming")
	subj("scary", "reassuring")
	subj("reassuring")
	subj("crowded", "empty")
	subj("empty", "crowded")
	subj("lively", "sleepy")
	subj("sleepy", "lively")
	subj("clean", "dirty")
	subj("dirty", "clean")
	subj("modern", "ancient")
	subj("ancient", "modern")
	subj("vibrant")
	subj("touristy")
	subj("walkable")
	subj("affordable", "unaffordable")
	subj("unaffordable")
	subj("competitive")
	subj("demanding", "easy")
	subj("easy", "hard")
	subj("hard", "easy")
	subj("stressful", "relaxing")
	subj("relaxing", "stressful")
	subj("rewarding")
	subj("lucrative")
	subj("risky", "safe")
	subj("tough", "gentle")
	subj("gentle", "tough")
	subj("fierce", "docile")
	subj("docile", "fierce")
	subj("adorable", "repulsive")
	subj("repulsive")
	subj("fluffy")
	subj("majestic")
	subj("venomous", "harmless")
	subj("aggressive", "passive")
	subj("passive")
	subj("smart", "stupid")
	subj("stupid", "smart")
	subj("clever", "dim")
	subj("dim")
	subj("funny", "humorless")
	subj("humorless")
	subj("talented", "talentless")
	subj("talentless")
	subj("arrogant", "humble")
	subj("humble", "arrogant")
	subj("generous", "stingy")
	subj("stingy")
	subj("glamorous", "drab")
	subj("drab")
	subj("controversial", "uncontroversial")
	subj("uncontroversial")
	subj("deep", "shallow")
	subj("shallow", "deep")
	subj("wide", "narrow")
	subj("narrow", "wide")
	subj("tall", "short")
	subj("short", "tall")
	subj("steep", "gradual")
	subj("gradual")
	subj("remote", "accessible")
	subj("accessible", "remote")
	subj("scenic")
	subj("healthy", "unhealthy")
	subj("unhealthy", "healthy")
	subj("strong", "weak")
	subj("weak", "strong")
	subj("strict", "lenient")
	subj("lenient")
	subj("brutal", "merciful")
	subj("merciful")
	subj("elegant", "clumsy")
	subj("clumsy")
	subj("graceful", "awkward")
	subj("awkward", "graceful")
	subj("intense", "mild")
	subj("mild", "intense")
	subj("technical")
	subj("physical")
	subj("athletic")

	// Objective adjectives (the patterns extract these too; the paper notes
	// most extractions end up subjective in practice).
	obj("american")
	obj("european")
	obj("asian")
	obj("african")
	obj("californian")
	obj("swiss")
	obj("british")
	obj("portuguese")
	obj("chinese")
	obj("southern", "northern")
	obj("northern", "southern")
	obj("eastern", "western")
	obj("western", "eastern")
	obj("coastal", "inland")
	obj("inland")
	obj("urban", "rural")
	obj("rural", "urban")
	obj("national")
	obj("international")
	obj("local")
	obj("annual")
	obj("olympic")
	obj("professional", "amateur")
	obj("amateur")
	obj("medical")
	obj("industrial")
	obj("alpine")
	obj("freshwater")
	obj("orange")
	obj("green")
	obj("blue")
	obj("red")
	obj("white")
	obj("black")

	// --- Common and type nouns --------------------------------------------

	class(Noun, classTypeNoun, "city", "cities", "town", "towns", "animal",
		"animals", "celebrity", "celebrities", "profession", "professions",
		"sport", "sports", "country", "countries", "lake", "lakes",
		"mountain", "mountains", "place", "places", "creature", "creatures",
		"person", "people", "job", "jobs", "game", "games", "activity",
		"activities", "pet", "pets", "star", "stars", "destination",
		"destinations", "peak", "peaks", "nation", "nations", "species",
		"actor", "actors", "musician", "musicians", "disease", "diseases",
		"car", "cars", "artist", "artists", "metropolis", "village",
		"villages", "predator", "predators", "career", "careers",
		"pastime", "hobby", "hobbies", "region", "regions", "area",
		"areas", "model", "models", "brand", "brands", "book", "books",
		"movie", "movies", "film", "films", "dish", "dishes", "food",
		"foods", "instrument", "instruments", "language", "languages",
		"building", "buildings", "river", "rivers", "island", "islands",
		"university", "universities", "company", "companies")

	add(Noun, "parking", "weather", "traffic", "nightlife",
		"food", "beach", "beaches", "summer", "winter", "tourists",
		"tourist", "families", "family", "kids", "children", "beginners",
		"beginner", "standards", "standard", "opinion", "opinions", "time",
		"year", "years", "day", "days", "night", "nights", "visit", "trip",
		"vacation", "holiday", "money", "price", "prices", "rent", "rents",
		"size", "population", "center", "downtown", "suburb", "suburbs",
		"street", "streets", "park", "parks", "museum", "museums", "house",
		"houses", "home", "homes", "world", "life", "way", "lot", "bit",
		"thing", "things", "fact", "reputation", "experience", "air",
		"water", "history", "culture", "economy", "crime", "safety",
		"living", "cost", "costs", "fan", "fans", "team", "teams",
		"player", "players", "match", "matches", "injury", "injuries",
		"salary", "salaries", "training", "skill", "skills", "fur", "tail",
		"teeth", "claws", "bite", "bites", "zoo", "wild", "nature",
		"hiking", "swimming", "climbing", "view", "views", "snow", "ice",
		"surface", "depth", "height", "area", "shore", "shores", "trail",
		"trails", "summit", "slope", "slopes")

	add(Punct, ".", ",", "!", "?", ";", ":", "(", ")", "\"", "'", "-")

	return l
}
