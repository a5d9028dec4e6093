// Package surftrie implements the trie-backed fuzzy candidate index:
// a compressed (path-compressed, sorted-child) trie over normalized
// entity surface forms with per-terminal candidate lists. It serves
// three lookup modes:
//
//   - exact: the paper's Section 5.1 candidate rules, answered in
//     O(|mention|) and provably identical to the brute-force
//     namematch.Index reference implementation;
//   - initials ("loose"): first-initial matching for citation-style
//     mentions ("W. Wang" finds every "Wei Wang"), identical to
//     namematch.Index.LooseCandidates;
//   - fuzzy: bounded-edit-distance lookup (Levenshtein row-walk over
//     the trie, distance ≤ MaxDistance) for noisy OCR text, returning
//     a strict superset of the exact candidates.
//
// Keys are canonicalised through namematch.Parse (lowercase, periods
// stripped, "Last, First" reordered, DBLP disambiguation suffixes
// dropped) into "last\x00first". Entities whose names carry
// diacritics, hyphens or apostrophes are additionally indexed under a
// folded alias key ("garcía-lópez" → "garcialopez"), so folded and
// noisy mentions still reach them through the fuzzy walk.
//
// The frozen representation is five flat arrays (see Trie). Build is
// deterministic, so snapshot loading rebuilds the trie from the
// graph's names instead of persisting it.
package surftrie

import (
	"strings"

	"shine/internal/namematch"
)

// sep separates the last-name and first-name components of a trie
// key. NUL cannot appear in a parsed name part (strings.Fields never
// yields it), so keys are unambiguous.
const sep = '\x00'

// keyOf returns the canonical trie key for a parsed name.
func keyOf(n namematch.Name) string {
	return n.Last + string(rune(sep)) + n.First
}

// foldKey returns the folded alias key: diacritics reduced to their
// ASCII base letters, hyphens and apostrophes dropped. Equal to
// keyOf(n) when the name needs no folding.
func foldKey(n namematch.Name) string {
	return fold(n.Last) + string(rune(sep)) + fold(n.First)
}

// fold maps a lowercase name part onto its folded form. The input is
// returned unchanged (no allocation) when nothing folds.
func fold(s string) string {
	changed := false
	for _, r := range s {
		if fr, ok := foldRune(r); !ok || fr != string(r) {
			changed = true
			break
		}
	}
	if !changed {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if fr, ok := foldRune(r); ok {
			b.WriteString(fr)
		}
	}
	return b.String()
}

// foldRune maps one rune to its folded spelling. The second return is
// false for runes that fold to nothing (hyphens, apostrophes,
// periods). Parsed names are already lowercase, so only lowercase
// diacritics need entries; anything unlisted passes through.
func foldRune(r rune) (string, bool) {
	switch r {
	case '-', '\'', '’', '.', '­': // hyphen, apostrophes, period, soft hyphen
		return "", false
	}
	if r < 0xC0 {
		return string(r), true
	}
	if f, ok := latinFolds[r]; ok {
		return f, true
	}
	return string(r), true
}

// latinFolds covers the Latin-1 Supplement and Latin Extended-A
// lowercase letters — the diacritics that actually occur in
// bibliographic author names. Multi-character expansions (æ → ae,
// ß → ss) are included so folded keys stay pronounceable.
var latinFolds = map[rune]string{
	'à': "a", 'á': "a", 'â': "a", 'ã': "a", 'ä': "a", 'å': "a",
	'æ': "ae", 'ç': "c",
	'è': "e", 'é': "e", 'ê': "e", 'ë': "e",
	'ì': "i", 'í': "i", 'î': "i", 'ï': "i",
	'ð': "d", 'ñ': "n",
	'ò': "o", 'ó': "o", 'ô': "o", 'õ': "o", 'ö': "o", 'ø': "o",
	'ù': "u", 'ú': "u", 'û': "u", 'ü': "u",
	'ý': "y", 'ÿ': "y", 'þ': "th", 'ß': "ss",
	'ā': "a", 'ă': "a", 'ą': "a",
	'ć': "c", 'ĉ': "c", 'ċ': "c", 'č': "c",
	'ď': "d", 'đ': "d",
	'ē': "e", 'ĕ': "e", 'ė': "e", 'ę': "e", 'ě': "e",
	'ĝ': "g", 'ğ': "g", 'ġ': "g", 'ģ': "g",
	'ĥ': "h", 'ħ': "h",
	'ĩ': "i", 'ī': "i", 'ĭ': "i", 'į': "i", 'ı': "i",
	'ĳ': "ij", 'ĵ': "j", 'ķ': "k",
	'ĺ': "l", 'ļ': "l", 'ľ': "l", 'ŀ': "l", 'ł': "l",
	'ń': "n", 'ņ': "n", 'ň': "n", 'ŉ': "n", 'ŋ': "n",
	'ō': "o", 'ŏ': "o", 'ő': "o", 'œ': "oe",
	'ŕ': "r", 'ŗ': "r", 'ř': "r",
	'ś': "s", 'ŝ': "s", 'ş': "s", 'š': "s",
	'ţ': "t", 'ť': "t", 'ŧ': "t",
	'ũ': "u", 'ū': "u", 'ŭ': "u", 'ů': "u", 'ű': "u", 'ų': "u",
	'ŵ': "w", 'ŷ': "y",
	'ź': "z", 'ż': "z", 'ž': "z",
}
