package surftrie

import (
	"fmt"
	"slices"

	"shine/internal/hin"
	"shine/internal/namematch"
)

// entry is one indexed entity with its parsed name, kept for the
// rule-based filter (namematch.Name.Matches / MatchesLoose) applied
// after trie retrieval — retrieval blocks, the rules decide.
type entry struct {
	entity hin.ObjectID
	name   namematch.Name
}

// Trie is the frozen candidate index: a path-compressed trie over
// normalized surface keys laid out breadth-first in five flat arrays.
// Node i's edge label is labels[labelLo[i]:labelLo[i+1]], its
// children are the contiguous node range [childLo[i], childLo[i+1])
// (sorted by first label byte), and its terminal candidate refs are
// refs[entryLo[i]:entryLo[i+1]]. A ref packs an index into entries
// with a low alias bit: alias terminals come from folded keys and
// participate only in fuzzy retrieval.
//
// Build is the only way to make a Trie. A Trie is immutable after
// Build and safe for concurrent lookups.
type Trie struct {
	labels  []byte
	labelLo []uint32
	childLo []uint32
	entryLo []uint32
	refs    []uint32
	entries []entry
}

// ---------------------------------------------------------------- build

// bnode is the mutable byte-level trie used during construction; the
// freeze pass path-compresses it into the flat arrays.
type bnode struct {
	next    map[byte]*bnode
	primary []uint32
	alias   []uint32
}

func (n *bnode) terminal() bool { return len(n.primary)+len(n.alias) > 0 }

// Build indexes the names of every object of entityType in g, exactly
// the population namematch.BuildIndex indexes: objects whose names
// parse to nothing are skipped, everything else is inserted under its
// canonical "last\x00first" key plus a folded alias key when folding
// changes it. Build is deterministic: the same graph always freezes
// to the same arrays.
func Build(g *hin.Graph, entityType hin.TypeID) (*Trie, error) {
	ents := g.ObjectsOfType(entityType)
	if len(ents) == 0 {
		return nil, fmt.Errorf("surftrie: no objects of type %d to index", entityType)
	}
	root := &bnode{}
	var entries []entry
	insert := func(key string, ref uint32, alias bool) {
		n := root
		for i := 0; i < len(key); i++ {
			c := key[i]
			if n.next == nil {
				n.next = make(map[byte]*bnode)
			}
			child := n.next[c]
			if child == nil {
				child = &bnode{}
				n.next[c] = child
			}
			n = child
		}
		if alias {
			n.alias = append(n.alias, ref)
		} else {
			n.primary = append(n.primary, ref)
		}
	}
	for _, e := range ents {
		n := namematch.Parse(g.Name(e))
		if n.IsEmpty() {
			continue
		}
		ref := uint32(len(entries))
		entries = append(entries, entry{entity: e, name: n})
		k := keyOf(n)
		insert(k, ref, false)
		if fk := foldKey(n); fk != k {
			insert(fk, ref, true)
		}
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("surftrie: no parseable names among %d objects of type %d", len(ents), entityType)
	}
	return freeze(root, entries), nil
}

// freeze path-compresses the byte trie and lays it out breadth-first,
// so each node's children occupy a contiguous id range and the whole
// structure becomes five flat arrays.
func freeze(root *bnode, entries []entry) *Trie {
	type qitem struct {
		n     *bnode
		label []byte
	}
	t := &Trie{
		entries: entries,
		labelLo: []uint32{0},
		entryLo: []uint32{0},
	}
	queue := []qitem{{n: root}}
	for i := 0; i < len(queue); i++ {
		it := queue[i]
		t.labels = append(t.labels, it.label...)
		t.labelLo = append(t.labelLo, uint32(len(t.labels)))
		for _, ref := range it.n.primary {
			t.refs = append(t.refs, ref<<1)
		}
		for _, ref := range it.n.alias {
			t.refs = append(t.refs, ref<<1|1)
		}
		t.entryLo = append(t.entryLo, uint32(len(t.refs)))
		t.childLo = append(t.childLo, uint32(len(queue)))
		// Children in byte order keep the layout deterministic and the
		// sibling ranges binary-searchable.
		bs := make([]byte, 0, len(it.n.next))
		for b := range it.n.next {
			bs = append(bs, b)
		}
		slices.Sort(bs)
		for _, b := range bs {
			// Path compression: swallow single-child, non-terminal
			// chains into one edge label.
			label := []byte{b}
			child := it.n.next[b]
			for len(child.next) == 1 && !child.terminal() {
				for nb, nn := range child.next {
					label = append(label, nb)
					child = nn
				}
			}
			queue = append(queue, qitem{n: child, label: label})
		}
	}
	t.childLo = append(t.childLo, uint32(len(queue)))
	return t
}

// --------------------------------------------------------------- lookup

func (t *Trie) label(node int) []byte {
	return t.labels[t.labelLo[node]:t.labelLo[node+1]]
}

func (t *Trie) children(node int) (int, int) {
	return int(t.childLo[node]), int(t.childLo[node+1])
}

func (t *Trie) nodeRefs(node int) []uint32 {
	return t.refs[t.entryLo[node]:t.entryLo[node+1]]
}

// findChild binary-searches node's sibling range for the child whose
// label starts with b.
func (t *Trie) findChild(node int, b byte) (int, bool) {
	lo, hi := t.children(node)
	for lo < hi {
		mid := (lo + hi) / 2
		first := t.labels[t.labelLo[mid]]
		switch {
		case first == b:
			return mid, true
		case first < b:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0, false
}

// locate walks the trie to the node spelling exactly key.
func (t *Trie) locate(key string) (int, bool) {
	node, pos := 0, 0
	for pos < len(key) {
		c, ok := t.findChild(node, key[pos])
		if !ok {
			return 0, false
		}
		lab := t.label(c)
		if len(key)-pos < len(lab) {
			return 0, false
		}
		for j := 1; j < len(lab); j++ {
			if key[pos+j] != lab[j] {
				return 0, false
			}
		}
		pos += len(lab)
		node = c
	}
	return node, true
}

// locateSubtree walks to the shallowest node whose spelled prefix
// starts with p; every stored key with prefix p lies in its subtree.
func (t *Trie) locateSubtree(p string) (int, bool) {
	node, pos := 0, 0
	for pos < len(p) {
		c, ok := t.findChild(node, p[pos])
		if !ok {
			return 0, false
		}
		lab := t.label(c)
		n := len(lab)
		if rem := len(p) - pos; rem < n {
			n = rem
		}
		for j := 1; j < n; j++ {
			if p[pos+j] != lab[j] {
				return 0, false
			}
		}
		pos += len(lab) // may overshoot len(p): prefix ended mid-edge
		node = c
	}
	return node, true
}

// walkSubtree visits every node in the subtree rooted at node,
// including node itself.
func (t *Trie) walkSubtree(node int, visit func(node int)) {
	stack := []int{node}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit(n)
		lo, hi := t.children(n)
		for c := hi - 1; c >= lo; c-- {
			stack = append(stack, c)
		}
	}
}

// Candidates returns the entities whose names are compatible with the
// mention under the paper's Section 5.1 rules, in ascending ID order
// with no duplicates — element-for-element identical to
// namematch.Index.Candidates. The slice is freshly allocated and
// owned by the caller.
func (t *Trie) Candidates(mention string) []hin.ObjectID {
	n := namematch.Parse(mention)
	if n.IsEmpty() {
		return nil
	}
	node, ok := t.locate(keyOf(n))
	if !ok {
		return nil
	}
	var out []hin.ObjectID
	for _, ref := range t.nodeRefs(node) {
		if ref&1 != 0 {
			continue // alias terminals serve only the fuzzy walk
		}
		e := t.entries[ref>>1]
		if n.Matches(e.name) {
			out = append(out, e.entity)
		}
	}
	return sortDedup(out)
}

// LooseCandidates extends Candidates with first-initial matching,
// identical to namematch.Index.LooseCandidates: the last name is
// walked exactly (O(|last|) instead of a hash of the whole block key)
// and the subtree below it — every first-name completion — is
// filtered through MatchesLoose.
func (t *Trie) LooseCandidates(mention string) []hin.ObjectID {
	n := namematch.Parse(mention)
	if n.IsEmpty() {
		return nil
	}
	root, ok := t.locateSubtree(n.Last + string(rune(sep)))
	if !ok {
		return nil
	}
	var out []hin.ObjectID
	t.walkSubtree(root, func(node int) {
		for _, ref := range t.nodeRefs(node) {
			if ref&1 != 0 {
				continue
			}
			e := t.entries[ref>>1]
			if n.MatchesLoose(e.name) {
				out = append(out, e.entity)
			}
		}
	})
	return sortDedup(out)
}

// sortDedup sorts ascending and removes duplicate IDs — an entity
// reachable through several stored keys must appear once.
func sortDedup(ids []hin.ObjectID) []hin.ObjectID {
	if len(ids) == 0 {
		return ids
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// CheckGraph verifies the index is consistent with a graph: every
// indexed entity must exist and carry entityType. shine.FromParts
// calls this before adopting a trie it is handed.
func (t *Trie) CheckGraph(g *hin.Graph, entityType hin.TypeID) error {
	for i := range t.entries {
		e := t.entries[i].entity
		if e < 0 || int(e) >= g.NumObjects() {
			return fmt.Errorf("surftrie: entry %d references out-of-range object %d", i, e)
		}
		if g.TypeOf(e) != entityType {
			return fmt.Errorf("surftrie: entry %d references object %d of type %d, want %d",
				i, e, g.TypeOf(e), entityType)
		}
	}
	return nil
}
