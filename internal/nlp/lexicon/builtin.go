package lexicon

// Default returns the built-in lexicon. The inventory is sized to the
// evaluation domains of the paper (Table 2, Figures 3 and 13) plus general
// free-text vocabulary; the knowledge base extends it with entity names at
// load time via AddNoun.
func Default() *Lexicon {
	l := &Lexicon{
		words:    map[string]Word{},
		forms:    make([]form, 1), // id 0: the unknown word
		antonyms: map[string][]string{},
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
	class(Verb, classCopula|classToBe, "is", "are", "was", "were", "be", "been", "being", "'s", "'re")
	// A slice, not a map: word ids follow the order of these calls.
	for _, v := range [][3]string{
		{"seem", "seems", "seemed"}, {"look", "looks", "looked"},
		{"appear", "appears", "appeared"}, {"become", "becomes", "became"},
		{"remain", "remains", "remained"}, {"stay", "stays", "stayed"},
		{"feel", "feels", "felt"}, {"sound", "sounds", "sounded"},
		{"get", "gets", "got"},
	} {
		class(Verb, classCopula, v[:]...)
	}

	// Auxiliaries.
	add(Aux, "do", "does", "did", "have", "has", "had", "will", "would",
		"can", "could", "may", "might", "must", "should", "shall")

	// Opinion verbs introducing complement clauses.
	add(Verb, "think", "thinks", "thought", "believe",
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
	// Antonym pairs are wired symmetrically.
	adj := l.AddAdjective

	// Table 2 properties.
	adj("dangerous", "safe", "harmless")
	adj("cute", "ugly")
	adj("big", "small", "tiny")
	adj("friendly", "hostile", "unfriendly")
	adj("deadly", "harmless")
	adj("cool", "lame")
	adj("crazy", "sane")
	adj("pretty", "ugly", "plain")
	adj("quiet", "loud", "noisy")
	adj("young", "old")
	adj("calm", "hectic", "chaotic")
	adj("cheap", "expensive", "pricey")
	adj("hectic", "calm")
	adj("multicultural", "homogeneous")
	adj("exciting", "boring", "dull")
	adj("rare", "common", "ubiquitous")
	adj("solid", "flimsy", "unstable")
	adj("vital", "trivial", "unimportant")
	adj("addictive")
	adj("boring", "exciting", "thrilling")
	adj("fast", "slow")
	adj("popular", "obscure", "unpopular")

	// Empirical-study properties (Section 2, Appendix A).
	adj("safe", "dangerous", "unsafe")
	adj("wealthy", "poor")
	adj("high", "low")
	adj("warm", "cold", "chilly")
	adj("major", "minor")
	adj("populated")

	// Antonym side of the pairs above plus general opinion adjectives.
	adj("small", "big", "large")
	adj("tiny", "huge")
	adj("ugly", "beautiful")
	adj("harmless", "deadly")
	adj("hostile")
	adj("unfriendly")
	adj("lame")
	adj("sane")
	adj("plain")
	adj("loud", "quiet")
	adj("noisy", "quiet")
	adj("old", "young", "new")
	adj("chaotic", "orderly")
	adj("expensive", "cheap")
	adj("pricey")
	adj("homogeneous")
	adj("dull", "vivid")
	adj("common", "rare")
	adj("ubiquitous")
	adj("flimsy")
	adj("unstable", "stable")
	adj("trivial", "vital")
	adj("unimportant", "important")
	adj("thrilling")
	adj("slow", "fast")
	adj("obscure", "famous")
	adj("unpopular")
	adj("poor", "wealthy", "rich")
	adj("rich", "poor")
	adj("low", "high")
	adj("cold", "warm", "hot")
	adj("chilly")
	adj("hot", "cold")
	adj("minor", "major")
	adj("unsafe", "safe")
	adj("beautiful", "ugly")
	adj("huge", "tiny")
	adj("large", "small")
	adj("famous", "obscure")
	adj("important", "unimportant")
	adj("new", "old")
	adj("stable", "unstable")
	adj("orderly", "chaotic")
	adj("vivid", "dull")
	adj("nice", "nasty")
	adj("nasty", "nice")
	adj("good", "bad")
	adj("bad", "good")
	adj("great", "terrible")
	adj("terrible", "great")
	adj("amazing", "awful")
	adj("awful", "amazing")
	adj("wonderful", "dreadful")
	adj("dreadful")
	adj("lovely")
	adj("charming")
	adj("scary", "reassuring")
	adj("reassuring")
	adj("crowded", "empty")
	adj("empty", "crowded")
	adj("lively", "sleepy")
	adj("sleepy", "lively")
	adj("clean", "dirty")
	adj("dirty", "clean")
	adj("modern", "ancient")
	adj("ancient", "modern")
	adj("vibrant")
	adj("touristy")
	adj("walkable")
	adj("affordable", "unaffordable")
	adj("unaffordable")
	adj("competitive")
	adj("demanding", "easy")
	adj("easy", "hard")
	adj("hard", "easy")
	adj("stressful", "relaxing")
	adj("relaxing", "stressful")
	adj("rewarding")
	adj("lucrative")
	adj("risky", "safe")
	adj("tough", "gentle")
	adj("gentle", "tough")
	adj("fierce", "docile")
	adj("docile", "fierce")
	adj("adorable", "repulsive")
	adj("repulsive")
	adj("fluffy")
	adj("majestic")
	adj("venomous", "harmless")
	adj("aggressive", "passive")
	adj("passive")
	adj("smart", "stupid")
	adj("stupid", "smart")
	adj("clever", "dim")
	adj("dim")
	adj("funny", "humorless")
	adj("humorless")
	adj("talented", "talentless")
	adj("talentless")
	adj("arrogant", "humble")
	adj("humble", "arrogant")
	adj("generous", "stingy")
	adj("stingy")
	adj("glamorous", "drab")
	adj("drab")
	adj("controversial", "uncontroversial")
	adj("uncontroversial")
	adj("deep", "shallow")
	adj("shallow", "deep")
	adj("wide", "narrow")
	adj("narrow", "wide")
	adj("tall", "short")
	adj("short", "tall")
	adj("steep", "gradual")
	adj("gradual")
	adj("remote", "accessible")
	adj("accessible", "remote")
	adj("scenic")
	adj("healthy", "unhealthy")
	adj("unhealthy", "healthy")
	adj("strong", "weak")
	adj("weak", "strong")
	adj("strict", "lenient")
	adj("lenient")
	adj("brutal", "merciful")
	adj("merciful")
	adj("elegant", "clumsy")
	adj("clumsy")
	adj("graceful", "awkward")
	adj("awkward", "graceful")
	adj("intense", "mild")
	adj("mild", "intense")
	adj("technical")
	adj("physical")
	adj("athletic")

	// Objective adjectives (the patterns extract these too; the paper notes
	// most extractions end up subjective in practice).
	adj("american")
	adj("european")
	adj("asian")
	adj("african")
	adj("californian")
	adj("swiss")
	adj("british")
	adj("portuguese")
	adj("chinese")
	adj("southern", "northern")
	adj("northern", "southern")
	adj("eastern", "western")
	adj("western", "eastern")
	adj("coastal", "inland")
	adj("inland")
	adj("urban", "rural")
	adj("rural", "urban")
	adj("national")
	adj("international")
	adj("local")
	adj("annual")
	adj("olympic")
	adj("professional", "amateur")
	adj("amateur")
	adj("medical")
	adj("industrial")
	adj("alpine")
	adj("freshwater")
	adj("orange")
	adj("green")
	adj("blue")
	adj("red")
	adj("white")
	adj("black")

	// --- Common and type nouns --------------------------------------------

	add(Noun, "city", "cities", "town", "towns", "animal",
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
