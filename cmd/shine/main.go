// Command shine is the command-line interface to the SHINE entity
// linking system: generating synthetic datasets, inspecting networks
// and meta-paths, linking mentions, and regenerating the paper's
// tables and figures.
//
// Usage:
//
//	shine gen   -graph FILE -docs FILE [flags]   generate a dataset
//	shine stats -graph FILE                      network statistics
//	shine paths [-maxlen N] [-enumerate]         show the meta-path set
//	shine link  -graph FILE -docs FILE [flags]   learn weights and link
//	shine snapshot build -out FILE [flags]       train and write the model artifact
//	shine bench -exp NAME [-quick]               regenerate a paper table/figure
//
// The model-serving commands (link, annotate, serve) get their model
// one way: from a -snapshot artifact, or trained on -graph and -docs.
// Every command is deterministic given its flags.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"text/tabwriter"
	"time"

	"shine/internal/annotate"
	"shine/internal/bibload"
	"shine/internal/corpus"
	"shine/internal/disambig"
	"shine/internal/experiments"
	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/obs"
	"shine/internal/server"
	"shine/internal/shine"
	"shine/internal/snapshot"
	"shine/internal/synth"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "disambig":
		err = cmdDisambig(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "dot":
		err = cmdDot(os.Args[2:])
	case "paths":
		err = cmdPaths(os.Args[2:])
	case "link":
		err = cmdLink(os.Args[2:])
	case "annotate":
		err = cmdAnnotate(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "snapshot":
		err = cmdSnapshot(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "update":
		err = cmdUpdate(os.Args[2:])
	case "help", "-h", "--help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "shine: unknown command %q\n\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "shine: %v\n", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `shine - entity linking with heterogeneous information networks

Commands:
  gen    -graph FILE -docs FILE [-seed N] [-authors N] [-groups N] [-numdocs N]
         Generate a synthetic DBLP-schema network and document corpus.
  build  -pubs FILE -graph FILE
         Build a network from JSON-lines publication records
         ({"title", "authors", "venue", "year"}) instead of the
         synthetic generator.
  disambig -pubs FILE -out FILE [-min-shared-terms N]
         Split same-name authors in publication records into distinct
         suffixed entities (run before build on raw records).
  stats  -graph FILE
         Print network statistics.
  dot    -graph FILE -entity NAME [-type author] [-hops N] [-out FILE]
         Export an entity's neighbourhood as Graphviz DOT.
  paths  [-maxlen N] [-enumerate]
         Show the paper's meta-path set (Table 3), or enumerate all
         author-rooted meta-paths up to -maxlen by schema BFS.
  MODEL SOURCE, shared by link, annotate and serve:
         -snapshot FILE, an artifact from "snapshot build", or
         -graph FILE -docs FILE [-workers N] to train here.
         -popularity NAME picks the P(e) backend (pagerank, degree,
         hits, ppr) or, with -snapshot, asserts the artifact's.
         -graph, -workers and -docs (except on link) conflict with
         -snapshot.
  link   MODEL SOURCE [-top N] [-precompute] [-fuzzy N]
         Link every mention in -docs and report accuracy. -fuzzy N
         retries mentions with no exact candidates at edit distance
         ≤ N (max 2) against the surface-form trie.
  annotate MODEL SOURCE [-in FILE] [-min-posterior F]
         Detect every entity mention in raw text (stdin or -in) and
         link each one, printing spans, entities and confidences.
  serve  MODEL SOURCE [-addr :8080] [-nil-prior F] [-metrics=true]
         [-pprof] [-drain 10s] [-precompute] [-timeout D]
         [-max-inflight N] [-max-queue N] [-fuzzy N]
         Serve the model over HTTP: /v1/link, /v1/annotate,
         /v1/explain, /v1/entity, /v1/healthz, /v1/readyz, plus
         Prometheus metrics at /metrics and optional /debug/pprof.
         -timeout bounds each model-serving request; -max-inflight
         sheds excess load with 429 once its wait queue fills.
         SIGINT/SIGTERM drains in-flight requests before exiting.
         With -snapshot, SIGHUP or POST /v1/admin/reload re-reads
         the artifact and swaps the serving model with no downtime.
  snapshot build   -graph FILE -docs FILE -out FILE [-popularity NAME]
         [-workers N] [-theta F] [-uniform-pop] [-no-learn] [-precompute=true]
         Train a model and write the checksummed artifact the other
         commands load in milliseconds. -theta, -uniform-pop and
         -no-learn (uniform meta-path weights) vary the model.
  snapshot inspect FILE [-json]
         Validate an artifact end to end and print its version,
         checksum, size and contents summary.
  bench  -exp NAME [-quick] [-csv DIR]
         Regenerate a paper experiment. Names: table2, table3, table4,
         table5, fig3, fig4, fig5, fig6, lambda, pruning, sgd,
         calibration, ambiguity, nil, noise, significance, uwalk,
         imdb, centrality, all. -csv also writes the data of table2,
         table4, table5, fig3, fig4, fig5, fig6 and centrality as
         NAME.csv (fig3 as figure3.csv) into DIR.
  update -addr URL [-in FILE] [-timeout D]
         Apply an incremental graph delta to a running server via
         POST /v1/admin/update. The input (a file, or stdin with
         "-") is NDJSON, one operation per line:
           {"op":"object","type":"paper","name":"p-9"}
           {"op":"edge","rel":"write","src":{"type":"author","name":"A"},
            "dst":{"type":"paper","name":"p-9"}}
         The batch is transactional (a bad line rejects it all), and
         a concurrent reload or update answers 409.
`)
}

// ------------------------------------------------------------------- gen

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	graphPath := fs.String("graph", "dataset.hin", "output path for the network")
	docsPath := fs.String("docs", "docs.json", "output path for the documents")
	seed := fs.Int64("seed", 1, "generation seed")
	authors := fs.Int("authors", 1800, "number of regular authors")
	groups := fs.Int("groups", 20, "number of ambiguous name groups")
	numDocs := fs.Int("numdocs", 700, "number of documents")
	fs.Parse(args)

	netCfg := synth.DefaultDBLPConfig()
	netCfg.Seed = *seed
	netCfg.RegularAuthors = *authors
	netCfg.AmbiguousGroups = *groups
	docCfg := synth.DefaultDocConfig()
	docCfg.Seed = *seed + 1
	docCfg.NumDocs = *numDocs

	ds, err := synth.BuildDataset(netCfg, docCfg)
	if err != nil {
		return err
	}
	gf, err := os.Create(*graphPath)
	if err != nil {
		return err
	}
	defer gf.Close()
	if _, err := ds.Data.Graph.WriteTo(gf); err != nil {
		return fmt.Errorf("writing graph: %w", err)
	}
	df, err := os.Create(*docsPath)
	if err != nil {
		return err
	}
	defer df.Close()
	enc := json.NewEncoder(df)
	for _, rd := range ds.RawDocs {
		if err := enc.Encode(rd); err != nil {
			return fmt.Errorf("writing documents: %w", err)
		}
	}
	st := ds.Data.Graph.Stats()
	fmt.Printf("wrote %s (%d objects, %d links) and %s (%d documents)\n",
		*graphPath, st.Objects, st.Links, *docsPath, len(ds.RawDocs))
	return nil
}

// ----------------------------------------------------------------- build

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	pubsPath := fs.String("pubs", "pubs.json", "publication records (JSON lines)")
	graphPath := fs.String("graph", "dataset.hin", "output path for the network")
	fs.Parse(args)

	f, err := os.Open(*pubsPath)
	if err != nil {
		return err
	}
	defer f.Close()
	_, g, st, err := bibload.Load(f)
	if err != nil {
		return err
	}
	out, err := os.Create(*graphPath)
	if err != nil {
		return err
	}
	defer out.Close()
	if _, err := g.WriteTo(out); err != nil {
		return fmt.Errorf("writing graph: %w", err)
	}
	gs := g.Stats()
	fmt.Printf("built %s from %d publications: %d objects, %d links (%d title terms skipped)\n",
		*graphPath, st.Publications, gs.Objects, gs.Links, st.SkippedTerms)
	return nil
}

// -------------------------------------------------------------- disambig

func cmdDisambig(args []string) error {
	fs := flag.NewFlagSet("disambig", flag.ExitOnError)
	pubsPath := fs.String("pubs", "pubs.json", "raw publication records (JSON lines)")
	outPath := fs.String("out", "pubs-disambiguated.json", "output path")
	minShared := fs.Int("min-shared-terms", 2, "shared title stems (with a shared venue) needed to merge records")
	fs.Parse(args)

	in, err := os.Open(*pubsPath)
	if err != nil {
		return err
	}
	defer in.Close()
	var pubs []bibload.Publication
	dec := json.NewDecoder(in)
	for {
		var pub bibload.Publication
		if err := dec.Decode(&pub); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("parsing %s: %w", *pubsPath, err)
		}
		pubs = append(pubs, pub)
	}
	cfg := disambig.DefaultConfig()
	cfg.MinSharedTerms = *minShared
	out, rep, err := disambig.Disambiguate(pubs, cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, pub := range out {
		if err := enc.Encode(pub); err != nil {
			return err
		}
	}
	fmt.Printf("examined %d names, split %d into %d total entities; wrote %s\n",
		rep.Names, rep.SplitNames, rep.Entities, *outPath)
	return nil
}

// ----------------------------------------------------------------- stats

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	graphPath := fs.String("graph", "dataset.hin", "network file")
	fs.Parse(args)

	g, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}
	st := g.Stats()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "objects\t%d\n", st.Objects)
	fmt.Fprintf(tw, "links\t%d\n", st.Links)
	fmt.Fprintf(tw, "isolated\t%d\n", st.Isolated)
	for name, n := range st.ObjectsByTyp {
		fmt.Fprintf(tw, "objects[%s]\t%d\n", name, n)
	}
	for name, n := range st.LinksByRel {
		fmt.Fprintf(tw, "links[%s]\t%d\n", name, n)
	}
	// Degree distributions per (type, forward relation from it).
	schema := g.Schema()
	for ti := 0; ti < schema.NumTypes(); ti++ {
		t := hin.TypeID(ti)
		for _, rel := range schema.RelationsFrom(t) {
			ds, err := g.DegreeDistribution(t, rel)
			if err != nil {
				continue
			}
			fmt.Fprintf(tw, "degree[%s.%s]\tmean %.2f, median %.0f, p99 %d, max %d, gini %.2f\n",
				schema.Type(t).Abbrev, schema.Relation(rel).Name,
				ds.Mean, ds.Median, ds.P99, ds.Max, ds.Gini)
		}
	}
	return tw.Flush()
}

// ------------------------------------------------------------------- dot

func cmdDot(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	graphPath := fs.String("graph", "dataset.hin", "network file")
	entity := fs.String("entity", "", "object name to centre on")
	typeName := fs.String("type", "author", "object type of -entity")
	hops := fs.Int("hops", 2, "neighbourhood radius")
	outPath := fs.String("out", "", "output file (default: stdout)")
	fs.Parse(args)

	if *entity == "" {
		return fmt.Errorf("dot: -entity is required")
	}
	g, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}
	t, ok := g.Schema().TypeByName(*typeName)
	if !ok {
		return fmt.Errorf("dot: graph has no type %q", *typeName)
	}
	obj, ok := g.Lookup(t, *entity)
	if !ok {
		return fmt.Errorf("dot: no %s named %q", *typeName, *entity)
	}
	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return g.WriteDOT(w, []hin.ObjectID{obj}, *hops)
}

// ----------------------------------------------------------------- paths

func cmdPaths(args []string) error {
	fs := flag.NewFlagSet("paths", flag.ExitOnError)
	maxLen := fs.Int("maxlen", 4, "maximum meta-path length for -enumerate")
	enumerate := fs.Bool("enumerate", false, "enumerate all author-rooted paths by schema BFS")
	fs.Parse(args)

	d := hin.NewDBLPSchema()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	if *enumerate {
		paths, err := metapath.Enumerate(d.Schema, d.Author, *maxLen)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d author-rooted meta-paths up to length %d:\n", len(paths), *maxLen)
		for _, p := range paths {
			fmt.Fprintf(tw, "%s\tlength %d\n", p, p.Len())
		}
		return tw.Flush()
	}
	fmt.Fprintln(tw, "Table 3: meta-paths in the DBLP network")
	fmt.Fprintln(tw, "meta-path\tsemantic meaning")
	semantics := experiments.Table3Semantics()
	for _, p := range metapath.DBLPPaperPaths(d) {
		fmt.Fprintf(tw, "%s\t%s\n", p, semantics[p.String()])
	}
	return tw.Flush()
}

// ----------------------------------------------------------------- model

// modelSource holds the flags that say where a command's model comes
// from: a -snapshot artifact, or -graph and -docs to train on. Every
// model command registers them through addModelFlags (snapshot build
// through addTrainFlags), so they have one spelling and one help text.
type modelSource struct {
	fs                    *flag.FlagSet
	snapshot, graph, docs string
	popularity            string
	workers               int
	// linksDocs marks a command that links the -docs file itself
	// (link), so the documents load on a snapshot boot too; elsewhere
	// -docs only trains.
	linksDocs bool
}

// loadedModel is a command's model together with the DBLP handles of
// its graph.
type loadedModel struct {
	m      *shine.Model
	schema *hin.DBLPSchema
	// docs is the ingested -docs file; nil after a snapshot boot of a
	// command that does not link its documents.
	docs *corpus.Corpus
	// info identifies the artifact of a snapshot boot; nil for a model
	// trained here.
	info *snapshot.Info
}

// addTrainFlags registers the flags that train a model.
func addTrainFlags(fs *flag.FlagSet) *modelSource {
	s := &modelSource{fs: fs}
	fs.StringVar(&s.graph, "graph", "dataset.hin", "network file to train on")
	fs.StringVar(&s.docs, "docs", "docs.json", "documents file (JSON lines of RawDoc)")
	fs.StringVar(&s.popularity, "popularity", "", "centrality backend for P(e): pagerank (default), degree, hits or ppr; with -snapshot, asserts the artifact's backend")
	fs.IntVar(&s.workers, "workers", 0, "training worker goroutines (0 = GOMAXPROCS)")
	return s
}

// addModelFlags registers the model-source flags of link, annotate and
// serve: the training flags plus -snapshot.
func addModelFlags(fs *flag.FlagSet, linksDocs bool) *modelSource {
	s := addTrainFlags(fs)
	s.linksDocs = linksDocs
	fs.StringVar(&s.snapshot, "snapshot", "", "artifact written by \"shine snapshot build\", loaded instead of training")
	return s
}

// config is the default model configuration under -popularity and
// -workers.
func (s *modelSource) config() shine.Config {
	cfg := shine.DefaultConfig()
	if s.popularity != "" {
		cfg.Centrality = s.popularity
	}
	if s.workers > 0 {
		cfg.Workers = s.workers
	}
	return cfg
}

// load returns the command's model: read from the -snapshot artifact,
// or trained on -graph and -docs. reg, when non-nil, receives the
// load-time gauge and the EM metrics. Progress goes to stderr, so
// stdout carries only the command's results.
func (s *modelSource) load(reg *obs.Registry) (*loadedModel, error) {
	if s.snapshot == "" {
		return s.train(reg, s.config(), true)
	}
	var conflict error
	s.fs.Visit(func(f *flag.Flag) {
		trains := f.Name == "graph" || f.Name == "workers" || (f.Name == "docs" && !s.linksDocs)
		if trains && conflict == nil {
			conflict = fmt.Errorf("-%s trains a model, so it cannot be combined with -snapshot", f.Name)
		}
	})
	if conflict != nil {
		return nil, conflict
	}
	start := time.Now()
	snap, err := snapshot.ReadFile(s.snapshot)
	if err != nil {
		return nil, err
	}
	info := snap.Info()
	// The artifact's config already keeps its backend consistent;
	// this catches a -popularity flag that names another one.
	if s.popularity != "" && s.popularity != info.Centrality {
		return nil, fmt.Errorf("snapshot was built with centrality backend %q, but -popularity requests %q; rebuild the artifact with `shine snapshot build -popularity %s`",
			info.Centrality, s.popularity, s.popularity)
	}
	m, err := snap.Model()
	if err != nil {
		return nil, err
	}
	if reg != nil {
		reg.Gauge(server.MetricSnapshotLoadSeconds).Set(time.Since(start).Seconds())
	}
	fmt.Fprintf(os.Stderr, "loaded %s in %v\n", info, time.Since(start).Round(time.Millisecond))
	lm := &loadedModel{m: m, info: &info}
	if lm.schema, err = dblpHandles(m.Graph()); err != nil {
		return nil, err
	}
	if s.linksDocs {
		if lm.docs, err = loadCorpus(m.Graph(), lm.schema, s.docs); err != nil {
			return nil, err
		}
	}
	return lm, nil
}

// train builds a model from -graph and -docs under cfg and, if learn
// is set, fits its meta-path weights by EM.
func (s *modelSource) train(reg *obs.Registry, cfg shine.Config, learn bool) (*loadedModel, error) {
	start := time.Now()
	g, err := loadGraph(s.graph)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		reg.Gauge(shine.MetricGraphBuildSeconds).Set(time.Since(start).Seconds())
	}
	d, err := dblpHandles(g)
	if err != nil {
		return nil, err
	}
	c, err := loadCorpus(g, d, s.docs)
	if err != nil {
		return nil, err
	}
	m, err := shine.New(g, d.Author, metapath.DBLPPaperPaths(d), c, cfg)
	if err != nil {
		return nil, err
	}
	m.SetMetrics(reg)
	if learn {
		stats, err := m.Learn(c)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "learned weights in %d EM iterations (%d gradient steps, %v/EM iter)\n",
			stats.EMIterations, stats.GDIterations, stats.EMIterTime)
		for i, p := range m.Paths() {
			fmt.Fprintf(os.Stderr, "  w(%s) = %.4f\n", p, m.Weights()[i])
		}
	}
	return &loadedModel{m: m, schema: d, docs: c}, nil
}

// loadCorpus reads and ingests a document file against a graph.
func loadCorpus(g *hin.Graph, d *hin.DBLPSchema, docsPath string) (*corpus.Corpus, error) {
	raws, err := loadDocs(docsPath)
	if err != nil {
		return nil, err
	}
	ing, err := corpus.NewIngester(g, corpus.DBLPIngestConfig(d))
	if err != nil {
		return nil, err
	}
	c := &corpus.Corpus{}
	for _, rd := range raws {
		c.Add(ing.Ingest(rd.ID, rd.Mention, rd.Gold, rd.Text))
	}
	return c, nil
}

// precompute builds the model's frozen entity-mixture index and
// reports its size.
func precompute(m *shine.Model) error {
	start := time.Now()
	if err := m.PrecomputeMixtures(); err != nil {
		return fmt.Errorf("precomputing mixtures: %w", err)
	}
	fmt.Printf("precomputed %d entity mixtures in %v\n",
		m.MixtureStats().Entries, time.Since(start).Round(time.Millisecond))
	return nil
}

// ------------------------------------------------------------------ link

func cmdLink(args []string) error {
	fs := flag.NewFlagSet("link", flag.ExitOnError)
	src := addModelFlags(fs, true)
	top := fs.Int("top", 0, "print the top-N candidate posteriors per mention")
	precomputeOn := fs.Bool("precompute", false, "eagerly build the frozen entity-mixture index before linking")
	fuzzy := fs.Int("fuzzy", 0, "fall back to edit-distance-N candidate retrieval when the exact rules find none (0 = off, max 2)")
	fs.Parse(args)

	lm, err := src.load(nil)
	if err != nil {
		return err
	}
	if err := lm.m.SetFuzzyDistance(*fuzzy); err != nil {
		return err
	}
	if *precomputeOn {
		if err := precompute(lm.m); err != nil {
			return err
		}
	}
	return linkCorpus(lm.m, lm.docs, *top)
}

// linkCorpus links every document and reports accuracy over the
// labelled ones.
func linkCorpus(m *shine.Model, c *corpus.Corpus, top int) error {
	g := m.Graph()
	correct, labelled := 0, 0
	for _, doc := range c.Docs {
		r, err := m.Link(doc)
		if err != nil {
			fmt.Printf("%s\t%q\tUNLINKED: %v\n", doc.ID, doc.Mention, err)
			continue
		}
		fmt.Printf("%s\t%q\t-> %s (posterior %.3f)\n",
			doc.ID, doc.Mention, g.Name(r.Entity), r.Candidates[0].Posterior)
		if top > 0 {
			for i, cs := range r.Candidates {
				if i >= top {
					break
				}
				fmt.Printf("\t\t#%d %s\tposterior %.4f\n", i+1, g.Name(cs.Entity), cs.Posterior)
			}
		}
		if doc.Gold != hin.NoObject {
			labelled++
			if r.Entity == doc.Gold {
				correct++
			}
		}
	}
	if labelled > 0 {
		fmt.Printf("accuracy: %d/%d = %.3f\n", correct, labelled, float64(correct)/float64(labelled))
	}
	return nil
}

// -------------------------------------------------------------- annotate

func cmdAnnotate(args []string) error {
	fs := flag.NewFlagSet("annotate", flag.ExitOnError)
	src := addModelFlags(fs, false)
	inPath := fs.String("in", "", "text file to annotate (default: stdin)")
	minPosterior := fs.Float64("min-posterior", 0, "suppress annotations below this confidence")
	fs.Parse(args)

	lm, err := src.load(nil)
	if err != nil {
		return err
	}
	var text []byte
	if *inPath != "" {
		text, err = os.ReadFile(*inPath)
	} else {
		text, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		return err
	}

	a, err := annotate.New(lm.m, corpus.DBLPIngestConfig(lm.schema), annotate.Options{MinPosterior: *minPosterior})
	if err != nil {
		return err
	}
	anns, err := a.Annotate("input", string(text))
	if err != nil {
		return err
	}
	if len(anns) == 0 {
		fmt.Println("no entity mentions found")
		return nil
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "span\tsurface\tentity\tposterior\tcandidates")
	for _, an := range anns {
		fmt.Fprintf(tw, "[%d,%d)\t%q\t%s\t%.3f\t%d\n",
			an.Start, an.End, an.Surface, an.EntityName, an.Posterior, an.Candidates)
	}
	return tw.Flush()
}

// ----------------------------------------------------------------- serve

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	src := addModelFlags(fs, false)
	addr := fs.String("addr", ":8080", "listen address")
	nilPrior := fs.Float64("nil-prior", 0, "enable NIL detection on /v1/link with this prior")
	metricsOn := fs.Bool("metrics", true, "expose Prometheus metrics at GET /metrics")
	pprofOn := fs.Bool("pprof", false, "mount profiling handlers under /debug/pprof/")
	drain := fs.Duration("drain", 10*time.Second, "connection drain deadline on SIGINT/SIGTERM")
	precomputeOn := fs.Bool("precompute", false, "build the frozen entity-mixture index before accepting traffic")
	timeout := fs.Duration("timeout", 0, "per-request deadline for model-serving endpoints (0 = none)")
	maxInFlight := fs.Int("max-inflight", 0, "cap on concurrently executing model-serving requests; excess is queued then shed with 429 (0 = unlimited)")
	maxQueued := fs.Int("max-queue", 0, "admission wait-queue depth when -max-inflight is set (0 = same as -max-inflight, negative = no queue)")
	fuzzy := fs.Int("fuzzy", 0, "fall back to edit-distance-N candidate retrieval when the exact rules find none (0 = off, max 2)")
	fs.Parse(args)

	// One registry for the whole process, wired before loading so the
	// load time and a startup EM run's metrics are visible on /metrics.
	reg := obs.NewRegistry()
	lm, err := src.load(reg)
	if err != nil {
		return err
	}
	srv, err := server.New(lm.m, corpus.DBLPIngestConfig(lm.schema), server.Options{
		NILPrior:          *nilPrior,
		Metrics:           reg,
		NoMetricsEndpoint: !*metricsOn,
		Pprof:             *pprofOn,
		Precompute:        *precomputeOn,
		FuzzyDistance:     *fuzzy,
		RequestTimeout:    *timeout,
		MaxInFlight:       *maxInFlight,
		MaxQueued:         *maxQueued,
		SnapshotPath:      src.snapshot,
		SnapshotInfo:      lm.info,
	})
	if err != nil {
		return err
	}

	hs := &http.Server{
		Addr:    *addr,
		Handler: srv,
		// Bound slow-loris header reads and idle keep-alive
		// connections; request bodies are already capped by the
		// server's MaxBodyBytes.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if src.snapshot != "" {
		// SIGHUP hot-swaps the serving model from the artifact — the
		// same path POST /v1/admin/reload takes, so a deploy can use
		// either `kill -HUP` or the admin endpoint.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				if info, err := srv.Reload(); err != nil {
					fmt.Fprintf(os.Stderr, "shine: SIGHUP reload failed (still serving previous model): %v\n", err)
				} else {
					fmt.Printf("SIGHUP reload: now serving %s\n", info)
				}
			}
		}()
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("serving %d objects on %s (metrics=%v pprof=%v)\n",
		lm.m.Graph().NumObjects(), *addr, *metricsOn, *pprofOn)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Second signal kills immediately; first drains in-flight
		// requests up to the deadline.
		stop()
		fmt.Fprintf(os.Stderr, "shine: signal received, draining connections (deadline %v)\n", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		return nil
	}
}

// -------------------------------------------------------------- snapshot

func cmdSnapshot(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: shine snapshot build|inspect [flags]")
	}
	switch args[0] {
	case "build":
		return cmdSnapshotBuild(args[1:])
	case "inspect":
		return cmdSnapshotInspect(args[1:])
	default:
		return fmt.Errorf("unknown snapshot subcommand %q (want build or inspect)", args[0])
	}
}

func cmdSnapshotBuild(args []string) error {
	fs := flag.NewFlagSet("snapshot build", flag.ExitOnError)
	src := addTrainFlags(fs)
	outPath := fs.String("out", "model.snap", "output path for the artifact")
	theta := fs.Float64("theta", 0.2, "smoothing parameter θ")
	uniformPop := fs.Bool("uniform-pop", false, "use the uniform popularity model")
	noLearn := fs.Bool("no-learn", false, "skip EM learning; use uniform meta-path weights")
	precomputeOn := fs.Bool("precompute", true, "bake the frozen entity-mixture index into the artifact so replicas boot warm")
	fs.Parse(args)

	cfg := src.config()
	cfg.Theta = *theta
	if *uniformPop {
		cfg.Popularity = shine.PopularityUniform
	}
	lm, err := src.train(nil, cfg, !*noLearn)
	if err != nil {
		return err
	}
	if *precomputeOn {
		if err := precompute(lm.m); err != nil {
			return err
		}
	}
	info, err := snapshot.WriteFile(*outPath, lm.m.Parts())
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s to %s\n", info, *outPath)
	return nil
}

func cmdSnapshotInspect(args []string) error {
	fs := flag.NewFlagSet("snapshot inspect", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "print the summary as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: shine snapshot inspect FILE [-json]")
	}
	snap, err := snapshot.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(snap.Info())
	}
	fmt.Println(snap.Info())
	return nil
}

// ----------------------------------------------------------------- bench

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment: table2..5, fig3..6, lambda, pruning, sgd, calibration, ambiguity, nil, noise, significance, uwalk, imdb, centrality, all")
	quick := fs.Bool("quick", false, "use the reduced quick dataset")
	csvDir := fs.String("csv", "", "also write the data of table2, table4, table5, fig3, fig4, fig5, fig6 and centrality as CSV into this directory")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	fs.Parse(args)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "shine: writing heap profile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "shine: writing heap profile: %v\n", err)
			}
		}()
	}

	writeCSV := func(name string, header []string, rows [][]string) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return experiments.WriteCSV(f, header, rows)
	}

	var env *experiments.Env
	var err error
	if *quick {
		env, err = experiments.QuickEnv()
	} else {
		env, err = experiments.DefaultEnv()
	}
	if err != nil {
		return err
	}
	st := env.DS.Data.Graph.Stats()
	fmt.Printf("dataset: %d objects, %d links, %d documents\n\n", st.Objects, st.Links, env.DS.Corpus.Len())

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("table2") {
		ran = true
		r, err := env.Table2()
		if err != nil {
			return err
		}
		r.WriteTo(os.Stdout)
		h, rows := r.CSV()
		if err := writeCSV("table2", h, rows); err != nil {
			return err
		}
		fmt.Println()
	}
	if want("table3") {
		ran = true
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Table 3: meta-paths in the DBLP network")
		for _, row := range env.Table3() {
			fmt.Fprintf(tw, "%s\t%s\n", row.Path, row.Semantic)
		}
		tw.Flush()
		fmt.Println()
	}
	if want("table4") {
		ran = true
		r, err := env.Table4()
		if err != nil {
			return err
		}
		r.WriteTo(os.Stdout)
		h, rows := r.CSV()
		if err := writeCSV("table4", h, rows); err != nil {
			return err
		}
		fmt.Println()
	}
	if want("table5") {
		ran = true
		r, err := env.Table5()
		if err != nil {
			return err
		}
		r.WriteTo(os.Stdout)
		h, rows := r.CSV()
		if err := writeCSV("table5", h, rows); err != nil {
			return err
		}
		fmt.Println()
	}
	if want("fig3") {
		ran = true
		rows, err := env.Figure3()
		if err != nil {
			return err
		}
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Figure 3: entity object model Pe(v) per candidate")
		fmt.Fprintln(tw, "candidate\tobject\ttype\tPe(v)")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\n", r.Candidate, r.Object, r.Type, r.Prob)
		}
		tw.Flush()
		h, csvRows := experiments.Figure3CSV(rows)
		if err := writeCSV("figure3", h, csvRows); err != nil {
			return err
		}
		fmt.Println()
	}
	if want("fig4") || want("fig4a") || want("fig4b") {
		ran = true
		sizes := []int{100, 200, 300, 400, 500, 600, 700}
		if *quick {
			sizes = []int{30, 60, 90, 120}
		}
		r, err := env.Figure4(sizes)
		if err != nil {
			return err
		}
		r.WriteTo(os.Stdout)
		h, rows := r.CSV()
		if err := writeCSV("figure4", h, rows); err != nil {
			return err
		}
		fmt.Println()
	}
	if want("fig5") {
		ran = true
		pts, err := env.Figure5(nil)
		if err != nil {
			return err
		}
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Figure 5 (Section 5.4): accuracy vs theta")
		fmt.Fprintln(tw, "theta\taccuracy")
		for _, p := range pts {
			fmt.Fprintf(tw, "%.1f\t%.3f\n", p.Theta, p.Accuracy)
		}
		tw.Flush()
		h, rows := experiments.Figure5CSV(pts)
		if err := writeCSV("figure5", h, rows); err != nil {
			return err
		}
		fmt.Println()
	}
	if want("fig6") {
		ran = true
		rows, stats, err := env.Figure6()
		if err != nil {
			return err
		}
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "Figure 6 (Section 5.5): learned meta-path weights (%d EM iterations)\n", stats.EMIterations)
		fmt.Fprintln(tw, "meta-path\tweight")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%.4f\n", r.Path, r.Weight)
		}
		tw.Flush()
		h, csvRows := experiments.Figure6CSV(rows)
		if err := writeCSV("figure6", h, csvRows); err != nil {
			return err
		}
		fmt.Println()
	}
	if want("lambda") {
		ran = true
		pts, err := env.LambdaSweep(nil)
		if err != nil {
			return err
		}
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Ablation: PageRank damping λ vs accuracy")
		fmt.Fprintln(tw, "lambda\taccuracy")
		for _, p := range pts {
			fmt.Fprintf(tw, "%.1f\t%.3f\n", p.Lambda, p.Accuracy)
		}
		tw.Flush()
		fmt.Println()
	}
	if want("pruning") {
		ran = true
		pts, err := env.PruningSweep(nil)
		if err != nil {
			return err
		}
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Ablation: walk pruning (top-k support) vs accuracy and learn time")
		fmt.Fprintln(tw, "max support\taccuracy\tlearn time")
		for _, p := range pts {
			label := fmt.Sprintf("%d", p.MaxSupport)
			if p.MaxSupport == 0 {
				label = "exact"
			}
			fmt.Fprintf(tw, "%s\t%.3f\t%v\n", label, p.Accuracy, p.LearnTime.Round(time.Millisecond))
		}
		tw.Flush()
		fmt.Println()
	}
	if want("sgd") {
		ran = true
		batch := 100
		if *quick {
			batch = 20
		}
		cmp, err := env.CompareSGD(batch)
		if err != nil {
			return err
		}
		fmt.Printf("Ablation: full-batch vs stochastic M-step (batch %d)\n", batch)
		fmt.Printf("full: accuracy %.3f, %v per EM iteration\n", cmp.FullAccuracy, cmp.FullEMIter)
		fmt.Printf("sgd:  accuracy %.3f, %v per EM iteration\n", cmp.SGDAccuracy, cmp.SGDEMIter)
		fmt.Println()
	}
	if want("calibration") {
		ran = true
		r, err := env.Calibration(10)
		if err != nil {
			return err
		}
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "Extra: posterior calibration (ECE %.3f)\n", r.ECE)
		fmt.Fprintln(tw, "posterior bin\tmentions\tmean posterior\taccuracy")
		for _, b := range r.Bins {
			if b.Count == 0 {
				continue
			}
			fmt.Fprintf(tw, "[%.1f, %.1f)\t%d\t%.3f\t%.3f\n", b.Lo, b.Hi, b.Count, b.MeanPosterior, b.Accuracy)
		}
		tw.Flush()
		fmt.Println()
	}
	if want("ambiguity") {
		ran = true
		pts, err := env.AmbiguityBreakdown()
		if err != nil {
			return err
		}
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Extra: accuracy by candidate-set size")
		fmt.Fprintln(tw, "candidates\tmentions\taccuracy")
		for _, p := range pts {
			hi := fmt.Sprintf("%d", p.MaxCands)
			if p.MaxCands > 1000 {
				hi = "+"
			}
			fmt.Fprintf(tw, "%d-%s\t%d\t%.3f\n", p.MinCands, hi, p.Mentions, p.Accuracy)
		}
		tw.Flush()
		fmt.Println()
	}
	if want("noise") {
		ran = true
		netCfg := synth.DefaultDBLPConfig()
		docCfg := synth.DefaultDocConfig()
		if *quick {
			netCfg.RegularAuthors = 400
			netCfg.AmbiguousGroups = 8
			docCfg.NumDocs = 120
		}
		pts, err := env.NoiseSweep(netCfg, docCfg, nil)
		if err != nil {
			return err
		}
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Extra: robustness to document noise")
		fmt.Fprintln(tw, "noise terms\tVSim\tSHINEall")
		for _, p := range pts {
			fmt.Fprintf(tw, "%d\t%.3f\t%.3f\n", p.NoiseTerms, p.VSim, p.SHINEall)
		}
		tw.Flush()
		fmt.Println()
	}
	if want("uwalk") {
		ran = true
		r, err := env.WalkAblation()
		if err != nil {
			return err
		}
		fmt.Println("Extra: meta-path constraints vs unconstrained uniform walks")
		fmt.Printf("unconstrained walks %.3f\nSHINEall            %.3f\n\n", r.Unconstrained, r.SHINEall)
	}
	if want("nil") {
		ran = true
		netCfg := synth.DefaultDBLPConfig()
		docCfg := synth.DefaultDocConfig()
		if *quick {
			netCfg.RegularAuthors = 400
			netCfg.AmbiguousGroups = 8
			docCfg.NumDocs = 120
		}
		pts, err := experiments.NILSweep(netCfg, docCfg, nil)
		if err != nil {
			return err
		}
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Extra: NIL detection (future work of Section 2.2) — prior sweep")
		fmt.Fprintln(tw, "NIL prior\taccuracy\tNIL recall\tfalse-NIL rate")
		for _, p := range pts {
			fmt.Fprintf(tw, "%.2f\t%.3f\t%.3f\t%.3f\n", p.Prior, p.Accuracy, p.NILRecall, p.FalseNILRate)
		}
		tw.Flush()
		fmt.Println()
	}
	if want("significance") {
		ran = true
		r, err := env.Significance()
		if err != nil {
			return err
		}
		fmt.Println("Extra: McNemar's test, SHINEall vs VSim")
		fmt.Printf("accuracy: SHINEall %.3f, VSim %.3f\n", r.SHINEAccuracy, r.VSimAccuracy)
		fmt.Printf("discordant pairs: %d only-SHINE vs %d only-VSim; p = %.2g (exact=%v)\n",
			r.McNemar.OnlyA, r.McNemar.OnlyB, r.McNemar.PValue, r.McNemar.Exact)
		if r.McNemar.Significant(0.05) {
			fmt.Println("difference significant at the 0.05 level")
		} else {
			fmt.Println("difference NOT significant at the 0.05 level")
		}
		fmt.Println()
	}
	if want("centrality") {
		ran = true
		r, err := env.CentralityComparison()
		if err != nil {
			return err
		}
		r.WriteTo(os.Stdout)
		h, rows := r.CSV()
		if err := writeCSV("centrality", h, rows); err != nil {
			return err
		}
		fmt.Println()
	}
	if want("imdb") {
		ran = true
		cfg := synth.DefaultIMDBConfig()
		if *quick {
			cfg.RegularActors = 150
			cfg.NumDocs = 40
		}
		r, err := experiments.IMDBComparison(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("Extra: schema generality — actor linking over IMDb (%d documents)\n", r.Documents)
		fmt.Printf("POP   %.3f\nSHINE %.3f  (EM converged in %d iterations)\n\n", r.POP, r.SHINE, r.EMIterations)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}

// --------------------------------------------------------------- helpers

func loadGraph(path string) (*hin.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hin.ReadGraph(f)
}

func loadDocs(path string) ([]synth.RawDoc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var out []synth.RawDoc
	for {
		var rd synth.RawDoc
		if err := dec.Decode(&rd); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		out = append(out, rd)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s contains no documents", path)
	}
	return out, nil
}

// dblpHandles reconstructs the DBLP schema handles from a loaded
// graph by looking up the canonical type and relation names.
func dblpHandles(g *hin.Graph) (*hin.DBLPSchema, error) {
	s := g.Schema()
	d := &hin.DBLPSchema{Schema: s}
	var ok bool
	lookups := []struct {
		id   *hin.TypeID
		name string
	}{
		{&d.Author, "author"}, {&d.Paper, "paper"}, {&d.Venue, "venue"},
		{&d.Term, "term"}, {&d.Year, "year"},
	}
	for _, l := range lookups {
		if *l.id, ok = s.TypeByName(l.name); !ok {
			return nil, fmt.Errorf("graph has no %q type; not a DBLP-schema network", l.name)
		}
	}
	rels := []struct {
		id   *hin.RelationID
		name string
	}{
		{&d.Write, "write"}, {&d.Publish, "publish"},
		{&d.Contain, "contain"}, {&d.PublishedIn, "publishedIn"},
	}
	for _, l := range rels {
		if *l.id, ok = s.RelationByName(l.name); !ok {
			return nil, fmt.Errorf("graph has no %q relation; not a DBLP-schema network", l.name)
		}
	}
	d.WrittenBy = s.Inverse(d.Write)
	d.PublishedAt = s.Inverse(d.Publish)
	d.ContainedIn = s.Inverse(d.Contain)
	d.YearOf = s.Inverse(d.PublishedIn)
	return d, nil
}
