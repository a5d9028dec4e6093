package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"shine/internal/annotate"
	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/shine"
	"shine/internal/snapshot"
	"shine/internal/synth"
)

// tolerance bounds how far a served posterior may sit from the
// in-process one, and how far a posterior vector may sum from 1.
const tolerance = 1e-9

// expect is the in-process answer for one link document.
type expect struct {
	entity hin.ObjectID
	n      int // candidates
	top    float64
}

// oracle holds the answers the in-process model gives on the served
// snapshot, computed before the load starts.
type oracle struct {
	links map[int]expect // pool document -> answer
	pages [][]annotate.Annotation
}

// ingestConfig is the DBLP ingestion the server uses, with type
// handles looked up on g.
func ingestConfig(g *hin.Graph) (corpus.IngestConfig, error) {
	s := g.Schema()
	d := &hin.DBLPSchema{Schema: s}
	for _, h := range []struct {
		id   *hin.TypeID
		name string
	}{{&d.Author, "author"}, {&d.Venue, "venue"}, {&d.Year, "year"}, {&d.Term, "term"}} {
		t, ok := s.TypeByName(h.name)
		if !ok {
			return corpus.IngestConfig{}, fmt.Errorf("graph has no %q type", h.name)
		}
		*h.id = t
	}
	return corpus.DBLPIngestConfig(d), nil
}

// loadModel reads a snapshot and restores its model, the way
// `shine serve -snapshot` boots.
func loadModel(path string) (*shine.Model, snapshot.Info, error) {
	snap, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, snapshot.Info{}, err
	}
	m, err := snap.Model()
	return m, snap.Info(), err
}

// newModel builds an untrained model over g with the documents as its
// corpus, the way `shine snapshot build` does, and returns the corpus
// to learn from.
func newModel(g *hin.Graph, author hin.TypeID, paths []metapath.Path, docs []synth.RawDoc) (*shine.Model, *corpus.Corpus, error) {
	cfg, err := ingestConfig(g)
	if err != nil {
		return nil, nil, err
	}
	ing, err := corpus.NewIngester(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	c := &corpus.Corpus{}
	for _, rd := range docs {
		c.Add(ing.Ingest(rd.ID, rd.Mention, rd.Gold, rd.Text))
	}
	m, err := shine.New(g, author, paths, c, shine.DefaultConfig())
	return m, c, err
}

func newOracle(snapPath string, ds *dataset, pages []page) (*oracle, error) {
	m, _, err := loadModel(snapPath)
	if err != nil {
		return nil, err
	}
	cfg, err := ingestConfig(m.Graph())
	if err != nil {
		return nil, err
	}
	ing, err := corpus.NewIngester(m.Graph(), cfg)
	if err != nil {
		return nil, err
	}
	o := &oracle{links: make(map[int]expect, len(ds.docs))}
	for i, rd := range ds.docs {
		res, err := m.LinkContext(context.Background(), ing.Ingest(rd.ID, rd.Mention, hin.NoObject, rd.Text))
		if err != nil {
			return nil, fmt.Errorf("oracle: linking %s: %w", rd.ID, err)
		}
		o.links[i] = expect{res.Entity, len(res.Candidates), res.Candidates[0].Posterior}
	}
	if len(pages) > 0 {
		ann, err := annotate.New(m, cfg, annotate.Options{})
		if err != nil {
			return nil, err
		}
		for j, p := range pages {
			anns, err := ann.Annotate(fmt.Sprintf("page-%d", j), p.text)
			if err != nil {
				return nil, fmt.Errorf("oracle: annotating page %d: %w", j, err)
			}
			o.pages = append(o.pages, anns)
		}
	}
	return o, nil
}

func snippet(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

type linkReply struct {
	Entity     *int32 `json:"entity"`
	Candidates []struct {
		Entity    *int32  `json:"entity"`
		Posterior float64 `json:"posterior"`
	} `json:"candidates"`
}

// checkLink validates a /v1/link answer for pool document doc and
// returns the linked entity. The answer must be a normalised posterior
// sorted best first, and its argmax, candidate count and top posterior
// must match the in-process model's.
func (o *oracle) checkLink(doc, code int, body []byte) (hin.ObjectID, error) {
	if code != 200 {
		return hin.NoObject, fmt.Errorf("status %d: %s", code, snippet(body))
	}
	var r linkReply
	if err := json.Unmarshal(body, &r); err != nil {
		return hin.NoObject, fmt.Errorf("decoding answer: %v", err)
	}
	if r.Entity == nil || len(r.Candidates) == 0 || r.Candidates[0].Entity == nil || *r.Candidates[0].Entity != *r.Entity {
		return hin.NoObject, fmt.Errorf("answer lacks an argmax candidate: %s", snippet(body))
	}
	sum, prev := 0.0, math.Inf(1)
	for _, c := range r.Candidates {
		if c.Entity == nil || c.Posterior > prev {
			return hin.NoObject, fmt.Errorf("candidates not sorted by posterior: %s", snippet(body))
		}
		sum, prev = sum+c.Posterior, c.Posterior
	}
	if math.Abs(sum-1) > tolerance {
		return hin.NoObject, fmt.Errorf("posteriors sum to %v", sum)
	}
	got := hin.ObjectID(*r.Entity)
	if e := o.links[doc]; got != e.entity || len(r.Candidates) != e.n || math.Abs(r.Candidates[0].Posterior-e.top) > tolerance {
		return got, fmt.Errorf("doc %d: served entity %d (%d candidates, top %v), in-process %d (%d, %v)",
			doc, got, len(r.Candidates), r.Candidates[0].Posterior, e.entity, e.n, e.top)
	}
	return got, nil
}

type annotationReply struct {
	Start, End int
	Surface    string
	Entity     int32
	Posterior  float64
	Candidates int
}

// checkAnnotate validates an /v1/annotate answer against the
// in-process annotation set of the page.
func (o *oracle) checkAnnotate(pageIdx, code int, body []byte) ([]annotationReply, error) {
	if code != 200 {
		return nil, fmt.Errorf("status %d: %s", code, snippet(body))
	}
	var r struct {
		Annotations []annotationReply `json:"annotations"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decoding answer: %v", err)
	}
	want := o.pages[pageIdx]
	if len(r.Annotations) != len(want) {
		return nil, fmt.Errorf("page %d: %d annotations served, %d in-process", pageIdx, len(r.Annotations), len(want))
	}
	for i, a := range r.Annotations {
		w := want[i]
		if a.Start != w.Start || a.End != w.End || hin.ObjectID(a.Entity) != w.Entity ||
			a.Candidates != w.Candidates || math.Abs(a.Posterior-w.Posterior) > tolerance {
			return nil, fmt.Errorf("page %d annotation %d: served %+v, in-process %+v", pageIdx, i, a, w)
		}
	}
	return r.Annotations, nil
}

// pageAccuracy scores the annotations of a page's own mentions: each
// part is one synthetic document, and an annotation of that
// document's mention inside it has the document's gold entity.
func pageAccuracy(ds *dataset, p page, anns []annotationReply) (correct, labelled int) {
	for _, a := range anns {
		for _, part := range p.parts {
			rd := ds.docs[part.doc]
			if a.Start >= part.start && a.End <= part.end && strings.EqualFold(a.Surface, rd.Mention) {
				labelled++
				if hin.ObjectID(a.Entity) == rd.Gold {
					correct++
				}
			}
		}
	}
	return correct, labelled
}
