package hin

import (
	"fmt"
	"slices"

	"shine/internal/par"
)

// Delta stages objects and edges to be appended to an immutable base
// Graph. It is the incremental-update counterpart of Builder: open one
// with Graph.Append, stage additions with Append/Patch (which perform
// the same validation and normalisation AddObject/AddLink would), and
// splice the result into a new graph with Merge. The base graph is
// never modified. A Delta is not safe for concurrent use; the base
// graph remains safe to read concurrently throughout.
type Delta struct {
	base  *Graph
	baseN int

	// Staged objects, assigned IDs baseN, baseN+1, ... in Append order
	// — exactly the IDs a Builder replaying the base then the delta
	// would assign, which is what makes the merge bit-identical.
	typeOf []TypeID
	names  []string
	staged map[nameKey]ObjectID

	// edges holds staged links per forward relation, normalised like
	// Builder.edges. Endpoints may be base objects or staged objects.
	edges    [][]edge
	numEdges int
}

// Append opens an empty delta buffer over g. The returned Delta stages
// new objects and edges against g without modifying it.
func (g *Graph) Append() *Delta {
	return &Delta{
		base:   g,
		baseN:  g.NumObjects(),
		staged: make(map[nameKey]ObjectID),
		edges:  make([][]edge, g.schema.NumRelations()),
	}
}

// Append stages an object of the given type with the given name and
// returns its ObjectID. Like Builder.AddObject, names act as unique
// keys within a type: if the base graph or this delta already holds
// the object, its existing ID is returned and nothing is staged.
func (d *Delta) Append(typ TypeID, name string) (ObjectID, error) {
	if !d.base.schema.validType(typ) {
		return NoObject, fmt.Errorf("hin: Delta.Append: invalid type %d", typ)
	}
	key := nameKey{typ, name}
	if id, ok := d.base.nameIndex[key]; ok {
		return id, nil
	}
	if id, ok := d.staged[key]; ok {
		return id, nil
	}
	id := ObjectID(d.baseN + len(d.typeOf))
	d.typeOf = append(d.typeOf, typ)
	d.names = append(d.names, name)
	d.staged[key] = id
	return id, nil
}

// MustAppend is Append that panics on error.
func (d *Delta) MustAppend(typ TypeID, name string) ObjectID {
	id, err := d.Append(typ, name)
	if err != nil {
		panic(err)
	}
	return id
}

// Patch stages a link of relation rel from src to dst. Endpoints may
// be base objects or objects staged by this delta. Validation and
// normalisation mirror Builder.AddLink: inverse relations are folded
// onto their forward member, endpoint types are checked against the
// schema, and duplicates are kept (multiplicity carries weight in
// random walks).
func (d *Delta) Patch(rel RelationID, src, dst ObjectID) error {
	schema := d.base.schema
	if !schema.validRelation(rel) {
		return fmt.Errorf("hin: Delta.Patch: invalid relation %d", rel)
	}
	if !d.validObject(src) || !d.validObject(dst) {
		return fmt.Errorf("hin: Delta.Patch: object out of range (src=%d dst=%d)", src, dst)
	}
	// Normalise to the even (forward) member of the relation pair.
	if rel%2 == 1 {
		rel = schema.Inverse(rel)
		src, dst = dst, src
	}
	ri := schema.Relation(rel)
	if d.typeOfAt(src) != ri.From || d.typeOfAt(dst) != ri.To {
		return fmt.Errorf("hin: Delta.Patch: relation %s expects %s -> %s, got %s -> %s",
			ri.Name,
			schema.Type(ri.From).Abbrev, schema.Type(ri.To).Abbrev,
			schema.Type(d.typeOfAt(src)).Abbrev, schema.Type(d.typeOfAt(dst)).Abbrev)
	}
	// Relations registered in the schema after the delta was opened
	// grow the edge table, exactly like Builder.growEdges.
	for len(d.edges) < schema.NumRelations() {
		d.edges = append(d.edges, nil)
	}
	d.edges[rel] = append(d.edges[rel], edge{src, dst})
	d.numEdges++
	return nil
}

// MustPatch is Patch that panics on error.
func (d *Delta) MustPatch(rel RelationID, src, dst ObjectID) {
	if err := d.Patch(rel, src, dst); err != nil {
		panic(err)
	}
}

// Lookup resolves (type, name) against the base graph first, then the
// staged objects.
func (d *Delta) Lookup(typ TypeID, name string) (ObjectID, bool) {
	if id, ok := d.base.Lookup(typ, name); ok {
		return id, true
	}
	id, ok := d.staged[nameKey{typ, name}]
	if !ok {
		return NoObject, false
	}
	return id, true
}

// Empty reports whether the delta stages nothing at all.
func (d *Delta) Empty() bool { return len(d.typeOf) == 0 && d.numEdges == 0 }

// Base returns the graph the delta was opened over.
func (d *Delta) Base() *Graph { return d.base }

func (d *Delta) typeOfAt(v ObjectID) TypeID {
	if int(v) < d.baseN {
		return d.base.typeOf[v]
	}
	return d.typeOf[int(v)-d.baseN]
}

func (d *Delta) validObject(v ObjectID) bool {
	return v >= 0 && int(v) < d.baseN+len(d.typeOf)
}

// MergeStats summarises what a Merge spliced in.
type MergeStats struct {
	// NewObjects and NewEdges count staged additions (edges count each
	// forward/inverse pair once, matching Graph.NumLinks).
	NewObjects int
	NewEdges   int
	// Touched lists every object whose adjacency rows changed: the
	// endpoints of all staged edges (a link changes the row of both
	// ends — one per direction) plus every staged object. Sorted
	// ascending, no duplicates. Downstream caches key their
	// invalidation off this set.
	Touched []ObjectID
}

// Merge splices the delta into its base graph and returns a new
// immutable Graph, in one pass per relation. The result is
// bit-identical to a from-scratch Builder.Build over the unioned input
// — same object IDs, same CSR bytes — because staged objects take the
// IDs a replaying Builder would assign and each touched CSR row is the
// sorted multiset merge of the base row and the staged additions. The
// base graph and the delta are not modified; the returned graph shares
// nothing mutable with either.
func (d *Delta) Merge() (*Graph, MergeStats) {
	base := d.base
	schema := base.schema
	numRels := schema.NumRelations()
	oldN := base.NumObjects()

	typeOf := slices.Concat(base.typeOf, d.typeOf)
	names := slices.Concat(base.names, d.names)
	nameIndex := make(map[nameKey]ObjectID, len(base.nameIndex)+len(d.staged))
	for k, v := range base.nameIndex {
		nameIndex[k] = v
	}
	for k, v := range d.staged {
		nameIndex[k] = v
	}
	newN := len(typeOf)

	// Staged edges per forward relation; relations registered after
	// the delta's last Patch have none.
	stagedByRel := make([][]edge, numRels)
	copy(stagedByRel, d.edges)

	g := &Graph{
		schema:    schema,
		typeOf:    typeOf,
		names:     names,
		nameIndex: nameIndex,
		rels:      make([]csr, numRels),
	}
	g.byType = make([][]ObjectID, schema.NumTypes())
	for v, t := range g.typeOf {
		g.byType[t] = append(g.byType[t], ObjectID(v))
	}

	// Splice per relation pair, in parallel like Builder.Build: pairs
	// are independent and each pair's splice is deterministic, so the
	// result is identical for any worker count.
	numPairs := numRels / 2
	par.For(numPairs, 0, func(pair int) {
		rel := 2 * pair
		var baseFwd, baseInv csr
		if rel < len(base.rels) {
			baseFwd, baseInv = base.rels[rel], base.rels[rel+1]
		}
		fwd := stagedByRel[rel]
		g.rels[rel] = spliceCSR(oldN, newN, baseFwd, fwd, false)
		g.rels[rel+1] = spliceCSR(oldN, newN, baseInv, fwd, true)
	})
	g.sealDegrees()

	// Touched set: both endpoints of every staged edge plus every
	// staged object.
	touchedMark := make([]bool, newN)
	for _, edges := range stagedByRel {
		for _, e := range edges {
			touchedMark[e.src] = true
			touchedMark[e.dst] = true
		}
	}
	for v := oldN; v < newN; v++ {
		touchedMark[v] = true
	}
	var touched []ObjectID
	for v, t := range touchedMark {
		if t {
			touched = append(touched, ObjectID(v))
		}
	}

	return g, MergeStats{
		NewObjects: newN - oldN,
		NewEdges:   d.numEdges,
		Touched:    touched,
	}
}

// spliceCSR merges one relation's staged edges into the base CSR in a
// single pass over both. Untouched rows are block-copied between
// touch points; each touched row is the two-pointer merge of the base
// row and the staged additions, both already sorted, which yields the
// same ascending multiset buildCSR's counting-sort-plus-row-sort
// produces — hence byte identity with a from-scratch build. A zero
// csr base (a relation registered after the base graph was built) is
// treated as all-empty rows.
func spliceCSR(oldN, newN int, base csr, staged []edge, reversed bool) csr {
	// Orient and sort the staged edges by (source, target) for this
	// direction.
	keyed := make([]edge, len(staged))
	for i, e := range staged {
		if reversed {
			keyed[i] = edge{src: e.dst, dst: e.src}
		} else {
			keyed[i] = e
		}
	}
	slices.SortFunc(keyed, func(a, b edge) int {
		if a.src != b.src {
			if a.src < b.src {
				return -1
			}
			return 1
		}
		switch {
		case a.dst < b.dst:
			return -1
		case a.dst > b.dst:
			return 1
		}
		return 0
	})

	baseLen := len(base.adj)
	off := make([]int32, newN+1)
	if base.off != nil {
		for v := 0; v < oldN; v++ {
			off[v+1] = base.off[v+1] - base.off[v]
		}
	}
	for _, e := range keyed {
		off[e.src+1]++
	}
	for i := 1; i <= newN; i++ {
		off[i] += off[i-1]
	}

	adj := make([]ObjectID, baseLen+len(keyed))
	basePos, outPos := 0, 0
	for i := 0; i < len(keyed); {
		v := keyed[i].src
		j := i
		for j < len(keyed) && keyed[j].src == v {
			j++
		}
		rowStart, rowEnd := baseLen, baseLen
		if base.off != nil && int(v) < oldN {
			rowStart, rowEnd = int(base.off[v]), int(base.off[v+1])
		}
		// Untouched base span up to row v, in one copy.
		outPos += copy(adj[outPos:], base.adj[basePos:rowStart])
		// Merge row v's base run with its staged run.
		row := base.adj[rowStart:rowEnd]
		bi := 0
		for k := i; k < j; k++ {
			d := keyed[k].dst
			for bi < len(row) && row[bi] <= d {
				adj[outPos] = row[bi]
				outPos++
				bi++
			}
			adj[outPos] = d
			outPos++
		}
		for bi < len(row) {
			adj[outPos] = row[bi]
			outPos++
			bi++
		}
		basePos = rowEnd
		i = j
	}
	copy(adj[outPos:], base.adj[basePos:])
	return csr{off: off, adj: adj}
}
