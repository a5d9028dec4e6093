package textproc

import "strings"

// stopWordList is the stop-word inventory used when filtering document
// and title terms. The paper filters with a 667-word list; this list
// covers the same classes of words (articles, pronouns, prepositions,
// conjunctions, auxiliaries, common adverbs and quantifiers, and the
// boilerplate vocabulary of academic web pages).
var stopWordList = []string{
	"a", "about", "above", "across", "after", "afterwards", "again",
	"against", "all", "almost", "alone", "along", "already", "also",
	"although", "always", "am", "among", "amongst", "an", "and",
	"another", "any", "anyhow", "anyone", "anything", "anyway",
	"anywhere", "are", "around", "as", "at", "back", "be", "became",
	"because", "become", "becomes", "becoming", "been", "before",
	"beforehand", "behind", "being", "below", "beside", "besides",
	"between", "beyond", "both", "bottom", "but", "by", "call", "can",
	"cannot", "could", "did", "do", "does", "doing", "done", "down",
	"due", "during", "each", "either", "else", "elsewhere", "enough",
	"etc", "even", "ever", "every", "everyone", "everything",
	"everywhere", "except", "few", "for", "former", "formerly", "from",
	"front", "further", "get", "give", "go", "had", "has", "have",
	"having", "he", "hence", "her", "here", "hereafter", "hereby",
	"herein", "hereupon", "hers", "herself", "him", "himself", "his",
	"how", "however", "i", "ie", "if", "in", "indeed", "instead",
	"into", "is", "it", "its", "itself", "just", "last", "latter",
	"latterly", "least", "less", "let", "like", "made", "make", "many",
	"may", "me", "meanwhile", "might", "mine", "more", "moreover",
	"most", "mostly", "much", "must", "my", "myself", "namely",
	"neither", "never", "nevertheless", "next", "no", "nobody", "none",
	"nonetheless", "noone", "nor", "not", "nothing", "now", "nowhere",
	"of", "off", "often", "on", "once", "one", "only", "onto", "or",
	"other", "others", "otherwise", "our", "ours", "ourselves", "out",
	"over", "own", "per", "perhaps", "please", "put", "rather", "re",
	"same", "see", "seem", "seemed", "seeming", "seems", "several",
	"she", "should", "since", "so", "some", "somehow", "someone",
	"something", "sometime", "sometimes", "somewhere", "still", "such",
	"take", "than", "that", "the", "their", "theirs", "them",
	"themselves", "then", "thence", "there", "thereafter", "thereby",
	"therefore", "therein", "thereupon", "these", "they", "this",
	"those", "though", "through", "throughout", "thru", "thus", "to",
	"together", "too", "toward", "towards", "under", "until", "up",
	"upon", "us", "used", "using", "various", "very", "via", "was",
	"we", "well", "were", "what", "whatever", "when", "whence",
	"whenever", "where", "whereafter", "whereas", "whereby", "wherein",
	"whereupon", "wherever", "whether", "which", "while", "whither",
	"who", "whoever", "whole", "whom", "whose", "why", "will", "with",
	"within", "without", "would", "yet", "you", "your", "yours",
	"yourself", "yourselves",
	// Academic web-page boilerplate.
	"university", "department", "professor", "prof", "dr", "phd",
	"degree", "received", "page", "home", "homepage", "email", "www",
	"http", "https", "edu", "org", "com",
}

var stopWords = func() map[string]bool {
	m := make(map[string]bool, len(stopWordList))
	for _, w := range stopWordList {
		m[w] = true
	}
	return m
}()

// IsStopWord reports whether the (case-insensitive) token is on the
// stop-word list.
func IsStopWord(tok string) bool {
	return stopWords[strings.ToLower(tok)]
}
