// Package bench holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (Section 5). Each
// benchmark prints or reports the same rows/series the paper does;
// accuracies are attached as custom metrics so `go test -bench` output
// doubles as the experiment record.
//
// The quick dataset (~400 authors, 120 documents) keeps a full sweep
// under a minute; run `go run ./cmd/shine bench -exp all` for the
// full-scale (2,000 authors, 700 documents) version of every
// experiment.
package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"shine/internal/annotate"
	"shine/internal/baselines"
	"shine/internal/bibload"
	"shine/internal/corpus"
	"shine/internal/eval"
	"shine/internal/experiments"
	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/namematch"
	"shine/internal/pagerank"
	"shine/internal/server"
	"shine/internal/shine"
	"shine/internal/snapshot"
	"shine/internal/surftrie"
	"shine/internal/synth"
	"shine/internal/textproc"
)

var (
	envOnce sync.Once
	env     *experiments.Env
	envErr  error
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() { env, envErr = experiments.QuickEnv() })
	if envErr != nil {
		b.Fatalf("building benchmark dataset: %v", envErr)
	}
	return env
}

// BenchmarkTable2Popularity regenerates Table 2: PageRank-based
// popularity of every candidate of the most ambiguous name. The
// dominant candidate's popularity share is reported as a metric.
func BenchmarkTable2Popularity(b *testing.B) {
	e := benchEnv(b)
	var top float64
	for i := 0; i < b.N; i++ {
		r, err := e.Table2()
		if err != nil {
			b.Fatal(err)
		}
		top = r.Rows[0].Popularity
	}
	b.ReportMetric(top, "top-popularity")
}

// BenchmarkTable3Enumeration regenerates Table 3's path set by BFS
// over the DBLP schema and verifies all ten paper paths are found.
func BenchmarkTable3Enumeration(b *testing.B) {
	d := hin.NewDBLPSchema()
	want := metapath.DBLPPaperPaths(d)
	var found int
	for i := 0; i < b.N; i++ {
		all, err := metapath.Enumerate(d.Schema, d.Author, 4)
		if err != nil {
			b.Fatal(err)
		}
		keys := make(map[string]bool, len(all))
		for _, p := range all {
			keys[p.Key()] = true
		}
		found = 0
		for _, p := range want {
			if keys[p.Key()] {
				found++
			}
		}
	}
	if found != 10 {
		b.Fatalf("enumeration found %d of 10 Table 3 paths", found)
	}
}

// BenchmarkTable4VSim regenerates Table 4: VSim accuracy per object
// type subset. The all-type accuracy is reported as a metric.
func BenchmarkTable4VSim(b *testing.B) {
	e := benchEnv(b)
	var acc float64
	for i := 0; i < b.N; i++ {
		r, err := e.Table4()
		if err != nil {
			b.Fatal(err)
		}
		acc = r.Rows[len(r.Rows)-1].Accuracy
	}
	b.ReportMetric(acc, "vsim-all-accuracy")
}

// BenchmarkTable5Approaches regenerates Table 5: POP, VSim and the
// four SHINE configurations, reporting each accuracy as a metric.
func BenchmarkTable5Approaches(b *testing.B) {
	e := benchEnv(b)
	var rows []experiments.Table5Row
	for i := 0; i < b.N; i++ {
		r, err := e.Table5()
		if err != nil {
			b.Fatal(err)
		}
		rows = r.Rows
	}
	for _, row := range rows {
		b.ReportMetric(row.Accuracy, row.Approach+"-acc")
	}
}

// BenchmarkFigure3ObjectModel regenerates Figure 3: the
// entity-specific object model over one document's objects for the
// three most popular candidates.
func BenchmarkFigure3ObjectModel(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4aScalability regenerates Figure 4(a): per-iteration
// EM and gradient descent time at increasing mention-set sizes. One
// sub-benchmark per size; the per-EM-iteration time is the metric —
// the paper's finding is that it grows linearly with the size.
func BenchmarkFigure4aScalability(b *testing.B) {
	e := benchEnv(b)
	for _, n := range []int{30, 60, 90, 120} {
		n := n
		b.Run(fmt.Sprintf("mentions=%d", n), func(b *testing.B) {
			sub, err := e.DS.Corpus.Subset(n)
			if err != nil {
				b.Fatal(err)
			}
			var emIter, gdIter float64
			for i := 0; i < b.N; i++ {
				m, err := shine.New(e.DS.Data.Graph, e.DS.Data.Schema.Author,
					e.Paths10, e.DS.Corpus, shine.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				stats, err := m.Learn(sub)
				if err != nil {
					b.Fatal(err)
				}
				emIter = float64(stats.EMIterTime.Microseconds())
				gdIter = float64(stats.GDIterTime.Microseconds())
			}
			b.ReportMetric(emIter, "µs/EM-iter")
			b.ReportMetric(gdIter, "µs/GD-iter")
		})
	}
}

// BenchmarkFigure4bAccuracy regenerates Figure 4(b): SHINEall
// accuracy at each mention-set size (expected: roughly flat).
func BenchmarkFigure4bAccuracy(b *testing.B) {
	e := benchEnv(b)
	sizes := []int{30, 60, 90, 120}
	var pts []experiments.Figure4Point
	for i := 0; i < b.N; i++ {
		r, err := e.Figure4(sizes)
		if err != nil {
			b.Fatal(err)
		}
		pts = r.Points
	}
	for _, p := range pts {
		b.ReportMetric(p.Accuracy, fmt.Sprintf("acc@%d", p.Mentions))
	}
}

// BenchmarkFigure5ThetaSweep regenerates Figure 5 (Section 5.4):
// accuracy as θ varies from 0.1 to 0.9.
func BenchmarkFigure5ThetaSweep(b *testing.B) {
	e := benchEnv(b)
	var pts []experiments.Figure5Point
	for i := 0; i < b.N; i++ {
		p, err := e.Figure5([]float64{0.1, 0.3, 0.5, 0.7, 0.9})
		if err != nil {
			b.Fatal(err)
		}
		pts = p
	}
	for _, p := range pts {
		b.ReportMetric(p.Accuracy, fmt.Sprintf("acc@theta=%.1f", p.Theta))
	}
}

// BenchmarkFigure6WeightLearning regenerates Figure 6 (Section 5.5):
// the full EM learning run producing the meta-path weight vector. The
// weight mass on length-2 paths is reported (the paper finds short
// discriminative paths dominate).
func BenchmarkFigure6WeightLearning(b *testing.B) {
	e := benchEnv(b)
	var short float64
	for i := 0; i < b.N; i++ {
		rows, _, err := e.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		short = 0
		for _, r := range rows {
			if len(r.Path) == len("A-P-A") {
				short += r.Weight
			}
		}
	}
	b.ReportMetric(short, "length2-weight-mass")
}

// BenchmarkAblationLambda sweeps the PageRank damping λ.
func BenchmarkAblationLambda(b *testing.B) {
	e := benchEnv(b)
	var pts []experiments.LambdaPoint
	for i := 0; i < b.N; i++ {
		p, err := e.LambdaSweep([]float64{0.2, 0.8})
		if err != nil {
			b.Fatal(err)
		}
		pts = p
	}
	for _, p := range pts {
		b.ReportMetric(p.Accuracy, fmt.Sprintf("acc@lambda=%.1f", p.Lambda))
	}
}

// BenchmarkAblationPruning measures the accuracy/cost trade-off of
// top-k walk pruning.
func BenchmarkAblationPruning(b *testing.B) {
	e := benchEnv(b)
	var pts []experiments.PruningPoint
	for i := 0; i < b.N; i++ {
		p, err := e.PruningSweep([]int{0, 100})
		if err != nil {
			b.Fatal(err)
		}
		pts = p
	}
	for _, p := range pts {
		b.ReportMetric(p.Accuracy, fmt.Sprintf("acc@k=%d", p.MaxSupport))
	}
}

// BenchmarkAblationSGD contrasts full-batch and stochastic M-steps.
func BenchmarkAblationSGD(b *testing.B) {
	e := benchEnv(b)
	var cmp *experiments.SGDComparison
	for i := 0; i < b.N; i++ {
		c, err := e.CompareSGD(20)
		if err != nil {
			b.Fatal(err)
		}
		cmp = c
	}
	b.ReportMetric(cmp.FullAccuracy, "full-acc")
	b.ReportMetric(cmp.SGDAccuracy, "sgd-acc")
}

// learnWithWorkers trains a fresh model (cold walk cache — the
// preparation phase is the parallel hot spot) over the quick corpus
// with the given worker count and returns the Learn wall time.
func learnWithWorkers(b *testing.B, e *experiments.Env, workers int) time.Duration {
	b.Helper()
	cfg := shine.DefaultConfig()
	cfg.Workers = workers
	b.StopTimer() // model construction (PageRank, indexing) is not training
	m, err := shine.New(e.DS.Data.Graph, e.DS.Data.Schema.Author, e.Paths10, e.DS.Corpus, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
	start := time.Now()
	if _, err := m.Learn(e.DS.Corpus); err != nil {
		b.Fatal(err)
	}
	return time.Since(start)
}

// BenchmarkLearnSerial measures the full training pipeline
// (preparation + EM) with Workers=1 — the deterministic baseline the
// parallel path must reproduce bit-for-bit.
func BenchmarkLearnSerial(b *testing.B) {
	e := benchEnv(b)
	var total time.Duration
	for i := 0; i < b.N; i++ {
		total += learnWithWorkers(b, e, 1)
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "learn-ns/op")
}

// BenchmarkLearnParallel measures the same pipeline at 8 workers and
// reports the speedup over a serial run measured in the same process.
// The speedup tracks available cores: ~1.0 on a single-core host
// (parallelism cannot beat the hardware), approaching min(8, cores)
// on multi-core machines since preparation, the E-step and the M-step
// reductions all fan out.
func BenchmarkLearnParallel(b *testing.B) {
	e := benchEnv(b)
	serial := learnWithWorkers(b, e, 1) // untimed baseline for the ratio
	b.ResetTimer()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		total += learnWithWorkers(b, e, 8)
	}
	perOp := total / time.Duration(b.N)
	b.ReportMetric(float64(perOp.Nanoseconds()), "learn-ns/op")
	b.ReportMetric(float64(serial)/float64(perOp), "speedup-vs-serial")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// ----------------------------------------------------------- micro level

// BenchmarkPageRank measures the offline popularity computation over
// the benchmark network.
func BenchmarkPageRank(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := pagerank.Compute(e.DS.Data.Graph, pagerank.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCentrality measures each popularity backend's
// whole-network Compute over the benchmark graph — the per-backend
// offline cost column of the centrality comparison.
func BenchmarkCentrality(b *testing.B) {
	e := benchEnv(b)
	g := e.DS.Data.Graph
	for _, name := range pagerank.CentralityNames() {
		b.Run(name, func(b *testing.B) {
			cen, err := pagerank.NewCentrality(name, e.DS.Data.Schema.Author)
			if err != nil {
				b.Fatal(err)
			}
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := cen.Compute(g, pagerank.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "sweeps")
			b.ReportMetric(float64(g.NumLinks()), "edges")
		})
	}
}

// pageRankWithWorkers times one pull-kernel run at the given fan-out
// and reports edges processed per second per iteration.
func pageRankWithWorkers(b *testing.B, g *hin.Graph, workers int) time.Duration {
	b.Helper()
	opts := pagerank.DefaultOptions()
	opts.Workers = workers
	start := time.Now()
	res, err := pagerank.Compute(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start)
	if res.Iterations > 0 {
		perIter := elapsed / time.Duration(res.Iterations)
		b.ReportMetric(float64(g.NumLinks())/perIter.Seconds(), "edges/s")
	}
	return elapsed
}

// BenchmarkPageRankSerial measures the CSR pull kernel at Workers=1 —
// the deterministic baseline every parallel run reproduces
// bit-for-bit.
func BenchmarkPageRankSerial(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		pageRankWithWorkers(b, e.DS.Data.Graph, 1)
	}
}

// BenchmarkPageRankParallel measures the pull kernel at 8 workers and
// reports the speedup over a serial run measured in the same process.
// Like the training benchmarks, the speedup tracks available cores:
// ~1.0 on a single-core host, approaching min(8, cores) elsewhere.
func BenchmarkPageRankParallel(b *testing.B) {
	e := benchEnv(b)
	serial := pageRankWithWorkers(b, e.DS.Data.Graph, 1) // untimed ratio baseline
	b.ResetTimer()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		total += pageRankWithWorkers(b, e.DS.Data.Graph, 8)
	}
	perOp := total / time.Duration(b.N)
	b.ReportMetric(float64(serial)/float64(perOp), "speedup-vs-serial")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkPageRankReference measures the retired edge-push kernel
// (the oracle pull is tested against); the pull kernel should beat its
// per-iteration edge throughput.
func BenchmarkPageRankReference(b *testing.B) {
	e := benchEnv(b)
	g := e.DS.Data.Graph
	for i := 0; i < b.N; i++ {
		start := time.Now()
		res, err := pagerank.ReferenceCompute(g, pagerank.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if res.Iterations > 0 {
			perIter := time.Since(start) / time.Duration(res.Iterations)
			b.ReportMetric(float64(g.NumLinks())/perIter.Seconds(), "edges/s")
		}
	}
}

// BenchmarkGraphBuild measures Builder.Build — CSR construction fanned
// out across relation pairs — on the benchmark network's edge set.
func BenchmarkGraphBuild(b *testing.B) {
	e := benchEnv(b)
	orig := e.DS.Data.Graph
	builder := hin.NewBuilderFromGraph(orig)
	b.ReportMetric(float64(orig.NumLinks()), "links")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := builder.Build()
		if g.NumLinks() != orig.NumLinks() {
			b.Fatalf("rebuild produced %d links, want %d", g.NumLinks(), orig.NumLinks())
		}
	}
}

// BenchmarkMetaPathWalk measures a single length-4 constrained random
// walk without caching.
func BenchmarkMetaPathWalk(b *testing.B) {
	e := benchEnv(b)
	d := e.DS.Data.Schema
	w := metapath.NewWalker(e.DS.Data.Graph, 0)
	p := metapath.MustParse(d.Schema, "A-P-A-P-V")
	entity := e.DS.Data.Groups[0].Members[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Walk(context.Background(), entity, p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkSingleMention measures linking one mention with a
// ready model (warm walk cache), the online serving cost.
func BenchmarkLinkSingleMention(b *testing.B) {
	e := benchEnv(b)
	m, err := shine.New(e.DS.Data.Graph, e.DS.Data.Schema.Author, e.Paths10,
		e.DS.Corpus, shine.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	doc := e.DS.Corpus.Docs[0]
	if _, err := m.Link(doc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Link(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngest measures the text preprocessing pipeline on one
// generated document.
func BenchmarkIngest(b *testing.B) {
	e := benchEnv(b)
	rd := e.DS.RawDocs[0]
	var doc *corpus.Document
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc = e.DS.Ingester.Ingest(rd.ID, rd.Mention, rd.Gold, rd.Text)
	}
	if doc.TotalCount() == 0 {
		b.Fatal("ingested document empty")
	}
}

// BenchmarkDatasetGeneration measures full synthetic dataset
// construction (network + documents + ingestion).
func BenchmarkDatasetGeneration(b *testing.B) {
	net := synth.DefaultDBLPConfig()
	net.RegularAuthors = 200
	net.AmbiguousGroups = 5
	net.Topics = 4
	doc := synth.DefaultDocConfig()
	doc.NumDocs = 50
	for i := 0; i < b.N; i++ {
		if _, err := synth.BuildDataset(net, doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateVSim measures a full VSim evaluation pass, the
// baseline's end-to-end cost.
func BenchmarkEvaluateVSim(b *testing.B) {
	e := benchEnv(b)
	d := e.DS.Data.Schema
	for i := 0; i < b.N; i++ {
		vs, err := baselines.NewVSim(e.DS.Data.Graph, d.Author, nil, d.Author, d.Venue, d.Term, d.Year)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eval.Evaluate(vs, e.DS.Corpus); err != nil {
			b.Fatal(err)
		}
	}
}

// annotatePages joins the quick dataset's documents eight at a time
// with blank lines — the page shape /v1/annotate serves in the
// repository benchmark (~3 KB, ~24 mentions).
func annotatePages(e *experiments.Env) []string {
	var pages []string
	for j := 0; j+8 <= len(e.DS.RawDocs); j += 8 {
		var parts []string
		for _, rd := range e.DS.RawDocs[j : j+8] {
			parts = append(parts, rd.Text)
		}
		pages = append(pages, strings.Join(parts, "\n\n"))
	}
	return pages
}

// BenchmarkAnnotate measures annotating 8-document pages on a trained
// model with precomputed mixtures, as /v1/annotate serves them: the
// whole call (page), then its stages — tokenizing the page once,
// spotting the mentions and preparing the page from those tokens,
// cutting one document per distinct surface, and linking the cut
// documents through LinkStream. Costs are per page.
func BenchmarkAnnotate(b *testing.B) {
	e := benchEnv(b)
	m, err := shine.New(e.DS.Data.Graph, e.DS.Data.Schema.Author, e.Paths10,
		e.DS.Corpus, shine.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Learn(e.DS.Corpus); err != nil {
		b.Fatal(err)
	}
	if err := m.PrecomputeMixtures(); err != nil {
		b.Fatal(err)
	}
	a, err := annotate.New(m, corpus.DBLPIngestConfig(e.DS.Data.Schema), annotate.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ing := e.DS.Ingester
	// The spotting dictionary the annotator builds: every entity's
	// surface form.
	dict := textproc.NewDictionary()
	g := m.Graph()
	for _, ent := range g.ObjectsOfType(m.EntityType()) {
		dict.Add(corpus.CanonicalSurface(g.Name(ent)), struct{}{})
	}
	pages := annotatePages(e)
	tokens := make([][]textproc.Token, len(pages))
	prepared := make([]*corpus.Prepared, len(pages))
	docs := make([][]*corpus.Document, len(pages)) // one per distinct surface
	mentions, links := 0, 0
	for i, text := range pages {
		tokens[i] = textproc.Tokenize(text)
		prepared[i] = ing.PrepareTokens(tokens[i])
		seen := make(map[string]bool)
		for _, mt := range dict.FindAll(tokens[i]) {
			surface := text[tokens[i][mt.TokenStart].Start:tokens[i][mt.TokenEnd-1].End]
			mentions++
			if !seen[surface] {
				seen[surface] = true
				docs[i] = append(docs[i], prepared[i].Document("bench", surface, hin.NoObject))
			}
		}
		links += len(docs[i])
	}

	b.Run("page", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := a.Annotate("bench", pages[i%len(pages)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(mentions)/float64(len(pages)), "mentions/page")
		b.ReportMetric(float64(links)/float64(len(pages)), "links/page")
	})
	b.Run("tokenize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			textproc.Tokenize(pages[i%len(pages)])
		}
	})
	b.Run("spot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dict.FindAll(tokens[i%len(pages)])
		}
	})
	b.Run("prepare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ing.PrepareTokens(tokens[i%len(pages)])
		}
	})
	b.Run("cut", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % len(pages)
			for _, d := range docs[k] {
				prepared[k].Document("bench", d.Mention, hin.NoObject)
			}
		}
	})
	b.Run("link", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			page := docs[i%len(pages)]
			in := make(chan *corpus.Document, len(page))
			for _, d := range page {
				in <- d
			}
			close(in)
			for sr := range m.LinkStream(context.Background(), in, min(len(page), runtime.GOMAXPROCS(0))) {
				if sr.Err != nil {
					b.Fatal(sr.Err)
				}
			}
		}
	})
}

// BenchmarkServerLink measures one /v1/link request through the full
// HTTP handler stack.
func BenchmarkServerLink(b *testing.B) {
	e := benchEnv(b)
	m, err := shine.New(e.DS.Data.Graph, e.DS.Data.Schema.Author, e.Paths10,
		e.DS.Corpus, shine.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(m, corpus.DBLPIngestConfig(e.DS.Data.Schema), server.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rd := e.DS.RawDocs[0]
	body, err := json.Marshal(map[string]string{"mention": rd.Mention, "text": rd.Text})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/link", bytes.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkBibloadAndDisambig measures building a network from 5,000
// JSON-lines publication records with namesake-suffixed authors, the
// input shape `shine build` reads.
func BenchmarkBibloadAndDisambig(b *testing.B) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < 5000; i++ {
		pub := bibload.Publication{
			Title:   fmt.Sprintf("mining frequent patterns in graph stream %d", i%700),
			Authors: []string{fmt.Sprintf("Wei Wang %04d", i%40), fmt.Sprintf("Author %d", (i*7)%900)},
			Venue:   fmt.Sprintf("Venue %d", i%30),
			Year:    1990 + i%25,
		}
		if err := enc.Encode(pub); err != nil {
			b.Fatal(err)
		}
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := bibload.Load(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExplain measures the per-decision evidence breakdown.
func BenchmarkExplain(b *testing.B) {
	e := benchEnv(b)
	m, err := shine.New(e.DS.Data.Graph, e.DS.Data.Schema.Author, e.Paths10,
		e.DS.Corpus, shine.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	doc := e.DS.Corpus.Docs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Explain(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphSerialization measures WriteTo+ReadGraph round trips.
func BenchmarkGraphSerialization(b *testing.B) {
	e := benchEnv(b)
	g := e.DS.Data.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := hin.ReadGraph(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageRankScale measures PageRank cost as the network grows;
// the per-size ns/op should grow roughly linearly with the link count
// (power iteration is O(|Z|) per pass).
func BenchmarkPageRankScale(b *testing.B) {
	for _, authors := range []int{250, 500, 1000, 2000} {
		authors := authors
		b.Run(fmt.Sprintf("authors=%d", authors), func(b *testing.B) {
			cfg := synth.DefaultDBLPConfig()
			cfg.RegularAuthors = authors
			cfg.AmbiguousGroups = 5
			data, err := synth.GenerateDBLP(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(data.Graph.NumLinks()), "links")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pagerank.Compute(data.Graph, pagerank.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --------------------------------------------------------- serving path

// linkModel builds a model over the quick dataset with a warm frozen
// mixture index, the steady-state serving configuration.
func linkModel(b *testing.B, e *experiments.Env) *shine.Model {
	b.Helper()
	m, err := shine.New(e.DS.Data.Graph, e.DS.Data.Schema.Author, e.Paths10,
		e.DS.Corpus, shine.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := m.PrecomputeMixtures(); err != nil {
		b.Fatal(err)
	}
	return m
}

// feedDocs streams n documents, cycling through docs, and closes the
// channel when done. The buffer keeps the feeder ahead of an 8-worker
// pool, so the benchmarks time linking rather than the hand-off.
func feedDocs(docs []*corpus.Document, n int) <-chan *corpus.Document {
	in := make(chan *corpus.Document, 64)
	go func() {
		defer close(in)
		for j := 0; j < n; j++ {
			in <- docs[j%len(docs)]
		}
	}()
	return in
}

// BenchmarkLinkSerial measures linking the whole quick corpus one
// document at a time on a warm model — the frozen-CSR serving path.
// docs/sec is the headline throughput number recorded in
// BENCH_link.json.
func BenchmarkLinkSerial(b *testing.B) {
	e := benchEnv(b)
	m := linkModel(b, e)
	docs := e.DS.Corpus.Docs
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for _, doc := range docs {
			if _, err := m.Link(doc); err != nil {
				b.Fatal(err)
			}
		}
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(b.N)*float64(len(docs))/elapsed.Seconds(), "docs/sec")
}

// BenchmarkLinkParallel measures the same batch streamed through
// LinkStream on 8 workers. On a single-core host this matches
// BenchmarkLinkSerial (parallelism cannot beat the hardware); on
// multi-core hosts the docs/sec metric scales with available cores
// because the frozen index makes linking read-only and
// contention-free.
func BenchmarkLinkParallel(b *testing.B) {
	e := benchEnv(b)
	m := linkModel(b, e)
	docs := e.DS.Corpus.Docs
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for sr := range m.LinkStream(context.Background(), feedDocs(docs, len(docs)), 8) {
			if sr.Err != nil {
				b.Fatal(sr.Err)
			}
		}
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(b.N)*float64(len(docs))/elapsed.Seconds(), "docs/sec")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// streamDocCount sizes the streaming-vs-materialized comparison: large
// enough that O(n) result materialization dominates the materialized
// path's footprint, small enough to keep the bench under seconds.
const streamDocCount = 10000

// liveHeapMB forces a collection and returns the live heap in MiB —
// the number the streaming pipeline's O(workers+window) bound is
// stated in.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// BenchmarkLinkStream measures LinkStream over a 10k-document stream
// on a warm model: documents flow through a bounded worker pipeline
// and results are consumed as they emit, so peak-heap-mb stays flat
// regardless of stream length. Contrast with BenchmarkLinkParallel10K,
// which materializes all 10k results.
func BenchmarkLinkStream(b *testing.B) {
	e := benchEnv(b)
	m := linkModel(b, e)
	docs := e.DS.Corpus.Docs
	for _, doc := range docs {
		if _, err := m.Link(doc); err != nil {
			b.Fatal(err)
		}
	}
	base := liveHeapMB()
	var peak float64
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		count := 0
		for sr := range m.LinkStream(context.Background(), feedDocs(docs, streamDocCount), 8) {
			if sr.Err != nil {
				b.Fatal(sr.Err)
			}
			if count++; count == streamDocCount/2 {
				if h := liveHeapMB() - base; h > peak {
					peak = h
				}
			}
		}
		if count != streamDocCount {
			b.Fatalf("stream emitted %d results, want %d", count, streamDocCount)
		}
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(b.N)*streamDocCount/elapsed.Seconds(), "docs/sec")
	b.ReportMetric(peak, "peak-heap-mb")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkLinkParallel10K is the materialized counterpart: the same
// 10k documents through LinkStream, collected into one result slice
// (candidate lists included) held in memory at once. Its peak-heap-mb
// grows with the batch while BenchmarkLinkStream's does not — the
// reason the batch endpoint streams.
func BenchmarkLinkParallel10K(b *testing.B) {
	e := benchEnv(b)
	m := linkModel(b, e)
	docs := e.DS.Corpus.Docs
	for _, doc := range docs {
		if _, err := m.Link(doc); err != nil {
			b.Fatal(err)
		}
	}
	base := liveHeapMB()
	var peak float64
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		results := make([]shine.Result, 0, streamDocCount)
		for sr := range m.LinkStream(context.Background(), feedDocs(docs, streamDocCount), 8) {
			if sr.Err != nil {
				b.Fatal(sr.Err)
			}
			results = append(results, sr.Result)
		}
		if h := liveHeapMB() - base; h > peak {
			peak = h
		}
		runtime.KeepAlive(results)
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(b.N)*streamDocCount/elapsed.Seconds(), "docs/sec")
	b.ReportMetric(peak, "peak-heap-mb")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// ------------------------------------------------------------- snapshot

// BenchmarkSnapshotLoad measures restoring a ready-to-serve model from
// the binary artifact — CRC validation, section slicing and FromParts
// — the replica cold-start path. MB/s comes from SetBytes; contrast
// with BenchmarkSnapshotColdRebuild, the path the artifact replaces.
func BenchmarkSnapshotLoad(b *testing.B) {
	e := benchEnv(b)
	path := filepath.Join(b.TempDir(), "model.snap")
	if _, err := snapshot.WriteFile(path, linkModel(b, e).Parts()); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := snapshot.ReadBytes(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Model(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotColdRebuild measures reaching the same warm
// serving state without the artifact: graph deserialisation, model
// reconstruction (centrality, candidate indexing, the generic model),
// installing the trained weights and the full mixture precompute. The
// ratio to BenchmarkSnapshotLoad is the artifact's cold-start speedup,
// recorded in BENCH_snapshot.json.
func BenchmarkSnapshotColdRebuild(b *testing.B) {
	e := benchEnv(b)
	weights := linkModel(b, e).Weights()
	var graphBuf bytes.Buffer
	if _, err := e.DS.Data.Graph.WriteTo(&graphBuf); err != nil {
		b.Fatal(err)
	}
	graphData := graphBuf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := hin.ReadGraph(bytes.NewReader(graphData))
		if err != nil {
			b.Fatal(err)
		}
		m, err := shine.New(g, e.DS.Data.Schema.Author, e.Paths10, e.DS.Corpus, shine.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := m.SetWeights(weights); err != nil {
			b.Fatal(err)
		}
		if err := m.PrecomputeMixtures(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotWrite measures producing the artifact (Parts
// decomposition, encode and the atomic file write), the offline half
// of the pipeline.
func BenchmarkSnapshotWrite(b *testing.B) {
	e := benchEnv(b)
	m := linkModel(b, e)
	path := filepath.Join(b.TempDir(), "model.snap")
	info, err := snapshot.WriteFile(path, m.Parts())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(info.Bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.WriteFile(path, m.Parts()); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------ candidate index

// benchMentions cycles the quick corpus's mention surface forms, the
// realistic lookup workload.
func benchMentions(b *testing.B, e *experiments.Env) []string {
	b.Helper()
	out := make([]string, e.DS.Corpus.Len())
	for i, doc := range e.DS.Corpus.Docs {
		out[i] = doc.Mention
	}
	return out
}

// BenchmarkCandidatesMap measures exact candidate lookup on the
// hash-blocked brute-force reference index (namematch.Index) — the
// baseline BENCH_candidates.json contrasts the trie against.
func BenchmarkCandidatesMap(b *testing.B) {
	e := benchEnv(b)
	idx, err := namematch.BuildIndex(e.DS.Data.Graph, e.DS.Data.Schema.Author)
	if err != nil {
		b.Fatal(err)
	}
	mentions := benchMentions(b, e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(idx.Candidates(mentions[i%len(mentions)])) == 0 {
			b.Fatal("corpus mention with no candidates")
		}
	}
}

// BenchmarkCandidatesTrie measures the same workload on the
// path-compressed surface trie, the production candidate source.
func BenchmarkCandidatesTrie(b *testing.B) {
	e := benchEnv(b)
	trie, err := surftrie.Build(e.DS.Data.Graph, e.DS.Data.Schema.Author)
	if err != nil {
		b.Fatal(err)
	}
	mentions := benchMentions(b, e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(trie.Candidates(mentions[i%len(mentions)])) == 0 {
			b.Fatal("corpus mention with no candidates")
		}
	}
}

// BenchmarkCandidatesFuzzy measures the edit-distance-2 Levenshtein
// row-walk over noisy mentions (each corpus mention with its last byte
// corrupted), the OCR-fallback cost ceiling.
func BenchmarkCandidatesFuzzy(b *testing.B) {
	e := benchEnv(b)
	trie, err := surftrie.Build(e.DS.Data.Graph, e.DS.Data.Schema.Author)
	if err != nil {
		b.Fatal(err)
	}
	mentions := benchMentions(b, e)
	for i, m := range mentions {
		if len(m) > 1 {
			mentions[i] = m[:len(m)-1] + "~"
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trie.FuzzyCandidates(mentions[i%len(mentions)], surftrie.MaxDistance)
	}
}

// BenchmarkWalkKernel contrasts the two walk kernels on an uncached
// length-4 walk: "map" is the original map-backed frontier
// (ReferenceWalk, kept as the testing oracle), "csr" the pooled dense
// scatter-gather kernel serving production traffic. Same bits out —
// the equivalence tests prove it — different ns/op and allocs/op.
func BenchmarkWalkKernel(b *testing.B) {
	e := benchEnv(b)
	d := e.DS.Data.Schema
	g := e.DS.Data.Graph
	p := metapath.MustParse(d.Schema, "A-P-A-P-V")
	entity := e.DS.Data.Groups[0].Members[0]

	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := metapath.ReferenceWalk(g, entity, p, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csr", func(b *testing.B) {
		w := metapath.NewWalker(g, 0) // cache off: measure the kernel
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Walk(context.Background(), entity, p, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPrecomputeMixtures measures the mixture precompute a
// snapshot build runs: every author of the quick network mixes its
// ten meta-path walks. Each iteration starts from a fresh model, whose
// mixture index and walker cache are empty, so every walk runs the hop
// kernel; building the model is not timed.
func BenchmarkPrecomputeMixtures(b *testing.B) {
	e := benchEnv(b)
	authors := len(e.DS.Data.Graph.ObjectsOfType(e.DS.Data.Schema.Author))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := shine.New(e.DS.Data.Graph, e.DS.Data.Schema.Author, e.Paths10,
			e.DS.Corpus, shine.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := m.PrecomputeMixtures(); err != nil {
			b.Fatal(err)
		}
		if got := m.MixtureStats().Entries; got != authors {
			b.Fatalf("precomputed %d mixtures for %d authors", got, authors)
		}
	}
}

// BenchmarkWalkScale measures a length-4 constrained walk as the
// author's neighbourhood grows with the network.
func BenchmarkWalkScale(b *testing.B) {
	for _, authors := range []int{250, 1000} {
		authors := authors
		b.Run(fmt.Sprintf("authors=%d", authors), func(b *testing.B) {
			cfg := synth.DefaultDBLPConfig()
			cfg.RegularAuthors = authors
			cfg.AmbiguousGroups = 5
			data, err := synth.GenerateDBLP(cfg)
			if err != nil {
				b.Fatal(err)
			}
			w := metapath.NewWalker(data.Graph, 0)
			p := metapath.MustParse(data.Schema.Schema, "A-P-A-P-T")
			entity := data.Groups[0].Members[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Walk(context.Background(), entity, p, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchDelta stages a graph delta of roughly one percent of the
// benchmark network's links, shaped like a freshly crawled workshop's
// proceedings: a new venue, new vocabulary, and new papers written by
// a handful of existing low-productivity authors. The shape matters —
// new objects are only reachable through the staged edges, so typed
// invalidation confines the blast radius to the contributing authors
// and their coauthor neighbourhoods rather than a venue or topic
// community.
func benchDelta(b *testing.B, g *hin.Graph, s *hin.DBLPSchema) *hin.Delta {
	b.Helper()
	// The three least-productive authors (smallest write out-degree,
	// ties by ID) become the workshop's contributors.
	var contributors []hin.ObjectID
	for _, a := range g.ObjectsOfType(s.Author) {
		contributors = append(contributors, a)
	}
	if len(contributors) < 3 {
		b.Fatal("benchmark dataset has fewer than 3 authors")
	}
	sort.SliceStable(contributors, func(i, j int) bool {
		return g.Degree(s.Write, contributors[i]) < g.Degree(s.Write, contributors[j])
	})
	contributors = contributors[:3]

	target := g.NumLinks() / 100
	d := g.Append()
	venue := d.MustAppend(s.Venue, "delta workshop")
	var terms []hin.ObjectID
	for i := 0; i < 4; i++ {
		terms = append(terms, d.MustAppend(s.Term, fmt.Sprintf("deltaterm%d", i)))
	}
	// Each new paper stages four distinct edges.
	for i, edges := 0, 0; edges == 0 || edges+4 <= target; i, edges = i+1, edges+4 {
		p := d.MustAppend(s.Paper, fmt.Sprintf("delta paper %d", i))
		d.MustPatch(s.Write, contributors[i%len(contributors)], p)
		d.MustPatch(s.Publish, venue, p)
		d.MustPatch(s.Contain, p, terms[i%len(terms)])
		d.MustPatch(s.Contain, p, terms[(i+1)%len(terms)])
	}
	return d
}

// BenchmarkDeltaMerge measures splicing a ~1% staged delta into the
// CSR against rebuilding the merged graph from scratch — the
// bit-identical pair (TestMergeDeltasBitIdenticalProperty pins byte
// equality), so the ratio is pure construction cost.
func BenchmarkDeltaMerge(b *testing.B) {
	e := benchEnv(b)
	g := e.DS.Data.Graph
	d := benchDelta(b, e.DS.Data.Graph, e.DS.Data.Schema)
	merged, stats := d.Merge()
	b.Run("splice", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(stats.NewEdges), "delta-edges")
		b.ReportMetric(100*float64(stats.NewEdges)/float64(g.NumLinks()), "delta-pct")
		for i := 0; i < b.N; i++ {
			d.Merge()
		}
	})
	// The comparator times Builder.Build alone (as BenchmarkGraphBuild
	// does), not builder loading — conservative in the splice's favor.
	b.Run("full-build", func(b *testing.B) {
		builder := hin.NewBuilderFromGraph(merged)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := builder.Build(); got.NumLinks() != merged.NumLinks() {
				b.Fatalf("rebuild produced %d links, want %d", got.NumLinks(), merged.NumLinks())
			}
		}
	})
}

// BenchmarkPageRankWarmStart measures the popularity refresh after a
// graph delta: Compute warm-started from the previous revision's
// scores (Options.Warm) against a cold Compute on the merged graph, on
// two delta shapes — benchDelta's ~1% object-adding workshop, and 20
// new write links between existing objects. Both sides converge to the
// same 1e-10 tolerance; agreement to 1e-9 L∞ is asserted before
// timing.
func BenchmarkPageRankWarmStart(b *testing.B) {
	e := benchEnv(b)
	g := e.DS.Data.Graph
	s := e.DS.Data.Schema
	opts := pagerank.DefaultOptions()
	prev, err := pagerank.Compute(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	objects, _ := benchDelta(b, g, s).Merge()
	authors, papers := g.ObjectsOfType(s.Author), g.ObjectsOfType(s.Paper)
	ed := g.Append()
	for i := 0; i < 20; i++ {
		ed.MustPatch(s.Write, authors[(7*i)%len(authors)], papers[(13*i+5)%len(papers)])
	}
	edges, _ := ed.Merge()

	warmOpts := opts
	warmOpts.Warm = prev.Scores
	for _, tc := range []struct {
		name   string
		merged *hin.Graph
	}{{"objects", objects}, {"edges", edges}} {
		warm, err := pagerank.Compute(tc.merged, warmOpts)
		if err != nil {
			b.Fatal(err)
		}
		cold, err := pagerank.Compute(tc.merged, opts)
		if err != nil {
			b.Fatal(err)
		}
		for v := range cold.Scores {
			if diff := warm.Scores[v] - cold.Scores[v]; diff > 1e-9 || diff < -1e-9 {
				b.Fatalf("%s: warm and cold scores disagree at %d: %g vs %g", tc.name, v, warm.Scores[v], cold.Scores[v])
			}
		}
		for _, side := range []struct {
			name  string
			opts  pagerank.Options
			sweep int
		}{{"warm", warmOpts, warm.Iterations}, {"cold", opts, cold.Iterations}} {
			b.Run(tc.name+"/"+side.name, func(b *testing.B) {
				b.ReportMetric(float64(side.sweep), "sweeps")
				for i := 0; i < b.N; i++ {
					if _, err := pagerank.Compute(tc.merged, side.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMixturePartialInvalidate measures the end-to-end
// incremental model update — Model.WithDelta (CSR splice + warm
// PageRank + per-entity mixture invalidation) followed by re-warming
// only the invalidated mixtures — against the global-flush path it
// replaces: a from-scratch merge, a cold model build (cold PageRank
// included) and a full mixture precompute. Both end in the same fully
// warm serving state; update_test.go pins that the incremental one is
// bit-identical to the cold rebuild. Like BenchmarkWalkScale this runs
// on its own mid-size network (1,000 regular authors) rather than the
// quick dataset: the comparison is about how re-warming scales, so the
// mixture flush should carry its realistic share of the rebuild cost.
func BenchmarkMixturePartialInvalidate(b *testing.B) {
	net := synth.DefaultDBLPConfig()
	net.RegularAuthors = 1000
	net.AmbiguousGroups = 10
	doc := synth.DefaultDocConfig()
	doc.NumDocs = 60
	ds, err := synth.BuildDataset(net, doc)
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Data.Graph
	s := ds.Data.Schema
	paths := metapath.DBLPPaperPaths(s)
	m, err := shine.New(g, s.Author, paths, ds.Corpus, shine.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := m.PrecomputeMixtures(); err != nil {
		b.Fatal(err)
	}
	d := benchDelta(b, g, s)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m2, stats, err := m.WithDelta(d)
			if err != nil {
				b.Fatal(err)
			}
			if err := m2.PrecomputeMixtures(); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(stats.MixturesKept), "mixtures-kept")
				b.ReportMetric(float64(stats.MixturesDropped), "mixtures-dropped")
				b.ReportMetric(float64(stats.AffectedObjects), "affected-objects")
				b.ReportMetric(float64(stats.PageRankIterations), "pagerank-sweeps")
			}
		}
	})
	merged, _ := d.Merge()
	builder := hin.NewBuilderFromGraph(merged)
	b.Run("full-rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g2 := builder.Build()
			m2, err := shine.New(g2, s.Author, paths, ds.Corpus, shine.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if err := m2.PrecomputeMixtures(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
