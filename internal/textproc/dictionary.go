package textproc

// Dictionary performs dictionary-based exact matching of multi-word
// surface forms over a token stream — the paper recognises author and
// venue objects in web text this way ("using dictionary-based exact
// matching method", Section 5.1). Matching is case-insensitive and
// greedy: at each position the longest entry that matches is
// reported, and scanning resumes after it.
//
// The dictionary is a token-level trie, so lookup time per position
// is bounded by the longest entry, independent of dictionary size.
type Dictionary struct {
	root    *trieNode
	entries int
	maxLen  int
}

type trieNode struct {
	children map[string]*trieNode
	// value is the payload of an entry terminating here; nil means no
	// entry ends at this node.
	value interface{}
	isEnd bool
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{root: &trieNode{}}
}

// Add registers the surface form with an arbitrary payload (typically
// an object ID). Forms are tokenised with Tokenize, so punctuation in
// names ("Richard R. Muntz") is handled uniformly with document text.
// Adding an existing form overwrites its payload. Empty forms are
// ignored.
func (d *Dictionary) Add(form string, value interface{}) {
	toks := Tokenize(form)
	if len(toks) == 0 {
		return
	}
	node := d.root
	for _, t := range toks {
		if node.children == nil {
			node.children = make(map[string]*trieNode)
		}
		next, ok := node.children[t.Lower]
		if !ok {
			next = &trieNode{}
			node.children[t.Lower] = next
		}
		node = next
	}
	if !node.isEnd {
		d.entries++
	}
	node.isEnd = true
	node.value = value
	if len(toks) > d.maxLen {
		d.maxLen = len(toks)
	}
}

// Len returns the number of distinct surface forms stored.
func (d *Dictionary) Len() int { return d.entries }

// Match is one dictionary hit over a token stream.
type Match struct {
	// Value is the payload stored with the matched form.
	Value interface{}
	// TokenStart and TokenEnd delimit the matched tokens,
	// half-open: tokens[TokenStart:TokenEnd].
	TokenStart, TokenEnd int
}

// FindAll scans the token stream left to right and returns all
// non-overlapping matches, preferring the longest match at each
// position.
func (d *Dictionary) FindAll(tokens []Token) []Match {
	var out []Match
	for i := 0; i < len(tokens); {
		m, ok := d.longestAt(tokens, i)
		if !ok {
			i++
			continue
		}
		out = append(out, m)
		i = m.TokenEnd
	}
	return out
}

// longestAt finds the longest entry starting at token position i.
func (d *Dictionary) longestAt(tokens []Token, i int) (Match, bool) {
	node := d.root
	best := Match{}
	found := false
	for j := i; j < len(tokens) && j-i < d.maxLen; j++ {
		next, ok := node.children[tokens[j].Lower]
		if !ok {
			break
		}
		node = next
		if node.isEnd {
			best = Match{Value: node.value, TokenStart: i, TokenEnd: j + 1}
			found = true
		}
	}
	return best, found
}
