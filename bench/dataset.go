package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"shine/internal/synth"
)

// params sizes one run. defaultParams is the benchmark; the smoke test
// shrinks every count so that every workload finishes in seconds.
type params struct {
	net  synth.DBLPConfig
	docs synth.DocConfig
	// setupReps is how many times set-up runs in one run; setup_s is
	// the median.
	setupReps       int
	warmup, measure time.Duration
	// pageDocs synthetic documents are concatenated into one annotate
	// page; pagePasses seeded orders of the pool are cut into pages.
	pageDocs, pagePasses int
	// replayOps sizes the traced in-process replay per workload. The
	// traced run times graph reads, snapshot writes and centrality
	// probeReps times each, and walkEntities fresh-walker mixtures.
	replayOps    map[string]int
	probeReps    int
	walkEntities int
}

// defaultParams is the benchmark. The network and its documents are
// the `shine gen` defaults whatever the seed: the seed draws the
// traffic (request order and page make-up), not the knowledge base.
// Per-seed networks moved annotate accuracy between 0.33 and 0.51 over
// ten seeds, more than any regression bound could absorb.
func defaultParams(seconds int) params {
	measure := time.Duration(seconds) * time.Second
	return params{
		net:          synth.DefaultDBLPConfig(),
		docs:         synth.DefaultDocConfig(),
		setupReps:    3,
		warmup:       min(5*time.Second, measure/2),
		measure:      measure,
		pageDocs:     8,
		pagePasses:   4,
		replayOps:    map[string]int{"link": 3000, "annotate": 150},
		probeReps:    3,
		walkEntities: 200,
	}
}

// dataset is one run's generated input: the network and document
// files the program reads, and the raw documents the load is made of.
type dataset struct {
	graphPath, docsPath string
	net                 *synth.DBLPData
	docs                []synth.RawDoc
	// order is the seeded request order over docs.
	order []int
}

// makeDataset generates the network and documents, writes them in the
// formats `shine gen` writes, and draws the seed's request order.
func makeDataset(dir string, p params, seed int64) (*dataset, error) {
	data, err := synth.GenerateDBLP(p.net)
	if err != nil {
		return nil, err
	}
	raw, err := synth.GenerateDocs(data, p.docs)
	if err != nil {
		return nil, err
	}
	ds := &dataset{
		graphPath: filepath.Join(dir, "dataset.hin"),
		docsPath:  filepath.Join(dir, "docs.json"),
		net:       data,
		docs:      raw,
		order:     rand.New(rand.NewSource(seed)).Perm(len(raw)),
	}
	if err := writeFile(ds.graphPath, func(w *bufio.Writer) error {
		_, err := data.Graph.WriteTo(w)
		return err
	}); err != nil {
		return nil, err
	}
	if err := writeFile(ds.docsPath, func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for _, rd := range raw {
			if err := enc.Encode(rd); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return ds, nil
}

func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = fill(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// surface strips a DBLP-style numeric disambiguation suffix, giving the
// form documents use ("Wei Wang 0003" -> "Wei Wang").
func surface(name string) string {
	f := strings.Fields(name)
	if n := len(f); n > 1 && strings.Trim(f[n-1], "0123456789") == "" {
		f = f[:n-1]
	}
	return strings.Join(f, " ")
}

type linkRequest struct {
	Mention string `json:"mention"`
	Text    string `json:"text"`
}

func mustJSON(v any) []byte {
	// Only strings and ints are marshalled here, which cannot fail.
	b, _ := json.Marshal(v)
	return b
}

// page is one /v1/annotate text: n documents joined by blank lines.
// parts records where each document sits, for scoring accuracy.
type page struct {
	text  string
	body  []byte
	parts []pagePart
}

type pagePart struct {
	start, end int
	doc        int
}

// pages cuts passes orders of the pool into pages of n documents: the
// request order, then further seeded orders. Each document then sits
// in several pages, so a seed's annotate accuracy rests on more
// neighbourhoods than one pass gives.
func (ds *dataset) pages(n, passes int, seed int64) []page {
	rng := rand.New(rand.NewSource(seed*7907 + 3))
	var out []page
	for r := 0; r < passes; r++ {
		order := ds.order
		if r > 0 {
			order = rng.Perm(len(ds.docs))
		}
		for j := 0; j+n <= len(order); j += n {
			var p page
			var b strings.Builder
			for k, i := range order[j : j+n] {
				if k > 0 {
					b.WriteString("\n\n")
				}
				start := b.Len()
				b.WriteString(ds.docs[i].Text)
				p.parts = append(p.parts, pagePart{start, b.Len(), i})
			}
			p.text = b.String()
			p.body = mustJSON(struct {
				Text string `json:"text"`
			}{p.text})
			out = append(out, p)
		}
	}
	return out
}
