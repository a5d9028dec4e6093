// DBLP scenario: the paper's full experimental pipeline on a
// generated bibliographic network — candidate generation, baselines,
// unsupervised EM weight learning, and a head-to-head accuracy
// comparison (the Table 5 experiment as a library consumer would run
// it).
//
// Run with:
//
//	go run ./examples/dblp [-authors N] [-docs N] [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"

	"shine/internal/baselines"
	"shine/internal/corpus"
	"shine/internal/eval"
	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/pagerank"
	"shine/internal/shine"
	"shine/internal/synth"
)

func main() {
	authors := flag.Int("authors", 900, "number of regular authors")
	docs := flag.Int("docs", 250, "number of Web documents")
	seed := flag.Int64("seed", 7, "generation seed")
	flag.Parse()

	// 1. Generate the dataset: a DBLP-schema network with ambiguous
	// author names, plus homepage-style documents with gold labels.
	netCfg := synth.DefaultDBLPConfig()
	netCfg.Seed = *seed
	netCfg.RegularAuthors = *authors
	netCfg.AmbiguousGroups = 12
	docCfg := synth.DefaultDocConfig()
	docCfg.Seed = *seed + 1
	docCfg.NumDocs = *docs

	ds, err := synth.BuildDataset(netCfg, docCfg)
	if err != nil {
		log.Fatal(err)
	}
	st := ds.Data.Graph.Stats()
	fmt.Printf("network: %d objects, %d links; corpus: %d documents\n",
		st.Objects, st.Links, ds.Corpus.Len())
	for _, grp := range ds.Data.Groups[:3] {
		fmt.Printf("  ambiguous name %q: %d candidate authors\n", grp.Surface, len(grp.Members))
	}

	d := ds.Data.Schema
	g := ds.Data.Graph

	// 2. Baselines.
	pop, err := baselines.NewPOP(g, d.Author, nil, pagerank.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	popSum, err := eval.Evaluate(pop, ds.Corpus)
	if err != nil {
		log.Fatal(err)
	}
	vsim, err := baselines.NewVSim(g, d.Author, nil, d.Author, d.Venue, d.Term, d.Year)
	if err != nil {
		log.Fatal(err)
	}
	vsimSum, err := eval.Evaluate(vsim, ds.Corpus)
	if err != nil {
		log.Fatal(err)
	}

	// 3. SHINE: learn meta-path weights by EM (no labels used), then
	// link.
	m, err := shine.New(g, d.Author, metapath.DBLPPaperPaths(d), ds.Corpus, shine.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	stats, err := m.Learn(ds.Corpus)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEM converged=%v after %d iterations (%d gradient steps)\n",
		stats.Converged, stats.EMIterations, stats.GDIterations)

	shineSum, err := eval.Evaluate(eval.LinkerFunc(func(doc *corpus.Document) (hin.ObjectID, error) {
		r, err := m.Link(doc)
		if err != nil {
			return hin.NoObject, err
		}
		return r.Entity, nil
	}), ds.Corpus)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\napproach   accuracy")
	fmt.Printf("POP        %.3f\n", popSum.Accuracy)
	fmt.Printf("VSim       %.3f\n", vsimSum.Accuracy)
	fmt.Printf("SHINEall   %.3f\n", shineSum.Accuracy)

	fmt.Println("\nlearned meta-path weights:")
	for i, p := range m.Paths() {
		fmt.Printf("  %-10s %.4f\n", p, m.Weights()[i])
	}
}
