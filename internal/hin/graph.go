package hin

import (
	"fmt"
	"slices"

	"shine/internal/par"
)

// ObjectID identifies an object (node) within a Graph. IDs are dense:
// a graph with n objects uses IDs 0..n-1.
type ObjectID int32

// NoObject is the sentinel returned by lookups that find nothing.
const NoObject ObjectID = -1

// Builder accumulates objects and links and produces an immutable
// Graph. A Builder is not safe for concurrent use.
type Builder struct {
	schema *Schema

	typeOf []TypeID
	names  []string

	// nameIndex maps (type, name) to the object, used to deduplicate
	// objects added twice and to resolve names at build time.
	nameIndex map[nameKey]ObjectID

	// edges holds one (src, dst) list per relation. Only forward
	// relations (even IDs) are populated during building; inverses are
	// derived at Build time.
	edges [][]edge
}

type nameKey struct {
	typ  TypeID
	name string
}

type edge struct {
	src, dst ObjectID
}

// NewBuilder returns a Builder for a graph over the given schema. The
// schema must not be modified after the builder is created.
func NewBuilder(schema *Schema) *Builder {
	return &Builder{
		schema:    schema,
		nameIndex: make(map[nameKey]ObjectID),
		edges:     make([][]edge, schema.NumRelations()),
	}
}

// AddObject registers an object of the given type with the given name
// and returns its ObjectID. If an object with the same type and name
// already exists, its existing ID is returned; names therefore act as
// unique keys within a type.
func (b *Builder) AddObject(typ TypeID, name string) (ObjectID, error) {
	if !b.schema.validType(typ) {
		return NoObject, fmt.Errorf("hin: AddObject: invalid type %d", typ)
	}
	key := nameKey{typ, name}
	if id, ok := b.nameIndex[key]; ok {
		return id, nil
	}
	id := ObjectID(len(b.typeOf))
	b.typeOf = append(b.typeOf, typ)
	b.names = append(b.names, name)
	b.nameIndex[key] = id
	return id, nil
}

// MustAddObject is AddObject that panics on error.
func (b *Builder) MustAddObject(typ TypeID, name string) ObjectID {
	id, err := b.AddObject(typ, name)
	if err != nil {
		panic(err)
	}
	return id
}

// AddLink records a link of relation rel from src to dst. The inverse
// link is recorded automatically at Build time. rel may be either a
// forward or an inverse relation; the link is normalised to the
// forward direction internally. Duplicate links are kept: multiplicity
// carries weight in random walks (an author with six SIGMOD papers is
// six times likelier to walk to SIGMOD than one with a single paper).
func (b *Builder) AddLink(rel RelationID, src, dst ObjectID) error {
	if !b.schema.validRelation(rel) {
		return fmt.Errorf("hin: AddLink: invalid relation %d", rel)
	}
	if !b.validObject(src) || !b.validObject(dst) {
		return fmt.Errorf("hin: AddLink: object out of range (src=%d dst=%d)", src, dst)
	}
	// Normalise to the even (forward) member of the relation pair.
	if rel%2 == 1 {
		rel = b.schema.Inverse(rel)
		src, dst = dst, src
	}
	ri := b.schema.Relation(rel)
	if b.typeOf[src] != ri.From || b.typeOf[dst] != ri.To {
		return fmt.Errorf("hin: AddLink: relation %s expects %s -> %s, got %s -> %s",
			ri.Name,
			b.schema.Type(ri.From).Abbrev, b.schema.Type(ri.To).Abbrev,
			b.schema.Type(b.typeOf[src]).Abbrev, b.schema.Type(b.typeOf[dst]).Abbrev)
	}
	b.growEdges()
	b.edges[rel] = append(b.edges[rel], edge{src, dst})
	return nil
}

// growEdges extends the per-relation edge lists to cover relations
// registered in the schema after the builder was created (network
// enrichment adds relation types to a live schema).
func (b *Builder) growEdges() {
	for len(b.edges) < b.schema.NumRelations() {
		b.edges = append(b.edges, nil)
	}
}

// MustAddLink is AddLink that panics on error.
func (b *Builder) MustAddLink(rel RelationID, src, dst ObjectID) {
	if err := b.AddLink(rel, src, dst); err != nil {
		panic(err)
	}
}

func (b *Builder) validObject(v ObjectID) bool {
	return v >= 0 && int(v) < len(b.typeOf)
}

// Build freezes the builder into an immutable Graph. The builder can
// continue to accumulate objects and links afterwards; subsequent
// Build calls produce independent graphs.
func (b *Builder) Build() *Graph {
	b.growEdges()
	n := len(b.typeOf)
	g := &Graph{
		schema: b.schema,
		typeOf: append([]TypeID(nil), b.typeOf...),
		names:  append([]string(nil), b.names...),
		rels:   make([]csr, b.schema.NumRelations()),
	}

	// Per-type object lists.
	g.byType = make([][]ObjectID, b.schema.NumTypes())
	for v, t := range g.typeOf {
		g.byType[t] = append(g.byType[t], ObjectID(v))
	}

	// Name index for lookups on the frozen graph.
	g.nameIndex = make(map[nameKey]ObjectID, len(b.nameIndex))
	for k, v := range b.nameIndex {
		g.nameIndex[k] = v
	}

	// Materialise forward and inverse CSR structures per relation pair.
	// Pairs are independent (each writes only its own two rels slots),
	// so they build in parallel; the per-pair construction itself is
	// deterministic, so the resulting graph is identical for any worker
	// count.
	numPairs := b.schema.NumRelations() / 2
	par.For(numPairs, 0, func(pair int) {
		rel := 2 * pair
		fwd := b.edges[rel]
		g.rels[rel] = buildCSR(n, fwd, false)
		g.rels[rel+1] = buildCSR(n, fwd, true)
	})

	// Cache the per-object total out-degree (the PageRank out-degree
	// N_v) once: Stats, TotalDegree and the pull-based PageRank kernel
	// all read this array instead of rescanning every relation.
	g.sealDegrees()
	return g
}

// sealDegrees (re)computes the total-degree cache from the adjacency
// arrays and records the adjacency checksum that guards it. Every path
// that constructs or splices the CSR (Build, FromParts, Delta.Merge)
// must call this last; checkDegreeCache compares the checksum against
// the live arrays so a mutation that bypasses those paths fails loudly
// instead of silently skewing PageRank's 1/N_v column norms.
func (g *Graph) sealDegrees() {
	n := len(g.typeOf)
	g.totalDeg = make([]int32, n)
	var sum int64
	for rel := range g.rels {
		off := g.rels[rel].off
		for v := 0; v < n; v++ {
			g.totalDeg[v] += off[v+1] - off[v]
		}
		sum += int64(len(g.rels[rel].adj))
	}
	g.degSum = sum
}

// checkDegreeCache panics if the adjacency arrays no longer match the
// checksum recorded when the total-degree cache was sealed. Graphs are
// immutable; the only supported growth paths are a Builder rebuild and
// Graph.Append followed by Delta.Merge, both of which reseal the
// cache. The check is
// O(relations) — a handful of slice-length reads — so the hot callers
// (one call per PageRank run) pay nothing measurable. It cannot catch
// an in-place overwrite that keeps lengths unchanged, but every
// append-style mutation (the realistic bypass) changes a length.
func (g *Graph) checkDegreeCache() {
	var sum int64
	for rel := range g.rels {
		sum += int64(len(g.rels[rel].adj))
	}
	if sum != g.degSum {
		panic(fmt.Sprintf("hin: total-degree cache is stale: adjacency holds %d directed links but the cache was sealed over %d — graphs are immutable; grow them through Graph.Append and Delta.Merge or a Builder", sum, g.degSum))
	}
}

// buildCSR constructs a CSR adjacency over n nodes from the edge list.
// If reversed, each edge (s, d) is stored as d -> s.
func buildCSR(n int, edges []edge, reversed bool) csr {
	off := make([]int32, n+1)
	for _, e := range edges {
		s := e.src
		if reversed {
			s = e.dst
		}
		off[s+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	adj := make([]ObjectID, len(edges))
	cursor := make([]int32, n)
	copy(cursor, off[:n])
	for _, e := range edges {
		s, d := e.src, e.dst
		if reversed {
			s, d = d, s
		}
		adj[cursor[s]] = d
		cursor[s]++
	}
	// Sort each adjacency run for deterministic iteration and binary
	// searchability.
	for v := 0; v < n; v++ {
		slices.Sort(adj[off[v]:off[v+1]])
	}
	return csr{off: off, adj: adj}
}

// csr stores one relation's adjacency in compressed sparse row form
// over the global object ID space. Objects whose type does not match
// the relation's source type simply have empty rows.
type csr struct {
	off []int32
	adj []ObjectID
}

func (c csr) neighbors(v ObjectID) []ObjectID {
	return c.adj[c.off[v]:c.off[v+1]]
}

func (c csr) degree(v ObjectID) int {
	return int(c.off[v+1] - c.off[v])
}

// Graph is an immutable heterogeneous information network. It is safe
// for concurrent use by multiple goroutines.
type Graph struct {
	schema    *Schema
	typeOf    []TypeID
	names     []string
	byType    [][]ObjectID
	nameIndex map[nameKey]ObjectID
	rels      []csr
	// totalDeg caches the total out-degree of every object across all
	// relations, computed once at Build time.
	totalDeg []int32
	// degSum is the total directed-link count the totalDeg cache was
	// computed over; checkDegreeCache compares it against the live
	// adjacency lengths to catch mutations that bypass sealDegrees.
	degSum int64
}

// Schema returns the network schema the graph was built over.
func (g *Graph) Schema() *Schema { return g.schema }

// NumObjects returns the total number of objects |V|.
func (g *Graph) NumObjects() int { return len(g.typeOf) }

// NumLinks returns the total number of links |Z|, counting each
// forward/inverse pair once.
func (g *Graph) NumLinks() int {
	total := 0
	for rel := 0; rel < len(g.rels); rel += 2 {
		total += len(g.rels[rel].adj)
	}
	return total
}

// TypeOf returns the object type of v.
func (g *Graph) TypeOf(v ObjectID) TypeID { return g.typeOf[v] }

// Name returns the name of object v.
func (g *Graph) Name(v ObjectID) string { return g.names[v] }

// ObjectsOfType returns all objects of the given type, in ID order.
// The returned slice is shared and must not be modified.
func (g *Graph) ObjectsOfType(t TypeID) []ObjectID {
	if t < 0 || int(t) >= len(g.byType) {
		return nil
	}
	return g.byType[t]
}

// Lookup finds the object of the given type with the given name.
func (g *Graph) Lookup(t TypeID, name string) (ObjectID, bool) {
	id, ok := g.nameIndex[nameKey{t, name}]
	if !ok {
		return NoObject, false
	}
	return id, true
}

// Neighbors returns the targets of all links of relation rel leaving
// v, in ascending ID order with multiplicity. The returned slice is
// shared and must not be modified.
func (g *Graph) Neighbors(rel RelationID, v ObjectID) []ObjectID {
	return g.rels[rel].neighbors(v)
}

// Degree returns the number of links of relation rel leaving v,
// counting multiplicity. In the paper's notation this is |R(v)| for
// the relation R.
func (g *Graph) Degree(rel RelationID, v ObjectID) int {
	return g.rels[rel].degree(v)
}

// TotalDegree returns the number of outgoing links of v summed over
// all relations (every link contributes to exactly one relation in
// each direction, so this is the PageRank out-degree N_v). It panics
// if the degree cache has gone stale (see checkDegreeCache).
func (g *Graph) TotalDegree(v ObjectID) int {
	g.checkDegreeCache()
	return int(g.totalDeg[v])
}

// TotalDegrees returns the total out-degree of every object, indexed
// by ObjectID — the column norms of the PageRank link matrix B,
// computed once at Build time. The returned slice is shared and must
// not be modified. It panics if the degree cache has gone stale (see
// checkDegreeCache).
func (g *Graph) TotalDegrees() []int32 {
	g.checkDegreeCache()
	return g.totalDeg
}

// NumRelations returns the number of directed relations the graph
// stores adjacency for (forward and inverse relations both count).
func (g *Graph) NumRelations() int { return len(g.rels) }

// Rows exposes relation rel's raw CSR arrays: off has NumObjects()+1
// entries and adj[off[v]:off[v+1]] is v's neighbor run in ascending
// ID order with multiplicity. This is the zero-overhead accessor the
// pull-based PageRank kernel iterates — no per-edge closure, no
// per-row method call. Both slices are shared and must not be
// modified.
func (g *Graph) Rows(rel RelationID) (off []int32, adj []ObjectID) {
	return g.rels[rel].off, g.rels[rel].adj
}

// ForEachLink calls fn for every directed link in the graph, i.e. each
// undirected relation instance is visited twice, once per direction.
// Iteration order is deterministic: by relation ID, then by source ID.
func (g *Graph) ForEachLink(fn func(rel RelationID, src, dst ObjectID)) {
	for rel := range g.rels {
		c := g.rels[rel]
		for v := 0; v < len(g.typeOf); v++ {
			for _, d := range c.neighbors(ObjectID(v)) {
				fn(RelationID(rel), ObjectID(v), d)
			}
		}
	}
}

// Validate performs internal consistency checks on the graph and
// returns the first problem found, or nil. It verifies that every link
// respects the schema typing, that forward and inverse adjacency agree
// in size, and that the per-type object lists partition the objects.
func (g *Graph) Validate() error {
	n := len(g.typeOf)
	counted := 0
	for t, objs := range g.byType {
		for _, v := range objs {
			if g.typeOf[v] != TypeID(t) {
				return fmt.Errorf("hin: object %d listed under type %d but has type %d", v, t, g.typeOf[v])
			}
		}
		counted += len(objs)
	}
	if counted != n {
		return fmt.Errorf("hin: byType lists %d objects, graph has %d", counted, n)
	}
	for rel := 0; rel < len(g.rels); rel += 2 {
		fwd, inv := g.rels[rel], g.rels[rel+1]
		if len(fwd.adj) != len(inv.adj) {
			return fmt.Errorf("hin: relation %d has %d forward links but %d inverse links",
				rel, len(fwd.adj), len(inv.adj))
		}
		ri := g.schema.Relation(RelationID(rel))
		for v := 0; v < n; v++ {
			deg := fwd.degree(ObjectID(v))
			if deg == 0 {
				continue
			}
			if g.typeOf[v] != ri.From {
				return fmt.Errorf("hin: relation %s has links from object %d of wrong type", ri.Name, v)
			}
			for _, d := range fwd.neighbors(ObjectID(v)) {
				if g.typeOf[d] != ri.To {
					return fmt.Errorf("hin: relation %s links to object %d of wrong type", ri.Name, d)
				}
			}
		}
	}
	return nil
}

// Stats summarises the graph for logging and documentation.
type Stats struct {
	Objects      int
	Links        int
	ObjectsByTyp map[string]int
	LinksByRel   map[string]int
	Isolated     int // objects with no links at all
}

// Stats computes summary statistics for the graph.
func (g *Graph) Stats() Stats {
	st := Stats{
		Objects:      g.NumObjects(),
		Links:        g.NumLinks(),
		ObjectsByTyp: make(map[string]int),
		LinksByRel:   make(map[string]int),
	}
	for t, objs := range g.byType {
		st.ObjectsByTyp[g.schema.Type(TypeID(t)).Name] = len(objs)
	}
	for rel := 0; rel < len(g.rels); rel += 2 {
		st.LinksByRel[g.schema.Relation(RelationID(rel)).Name] = len(g.rels[rel].adj)
	}
	// The Build-time degree cache makes this O(V) instead of the old
	// O(V·R) rescan of every relation per object.
	for _, d := range g.totalDeg {
		if d == 0 {
			st.Isolated++
		}
	}
	return st
}
