package experiments

import (
	"fmt"

	"shine/internal/baselines"
	"shine/internal/corpus"
	"shine/internal/eval"
	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/shine"
	"shine/internal/synth"
)

// These experiments go beyond the paper's tables: calibration of the
// posterior, accuracy as a function of ambiguity, robustness to
// document noise, and the IMDb generality claim measured rather than
// asserted.

// CalibrationResult reports how trustworthy SHINEall's posterior is
// as a confidence score.
type CalibrationResult struct {
	Bins []eval.CalibrationBin
	// ECE is the expected calibration error (0 = perfectly
	// calibrated).
	ECE float64
}

// Calibration learns SHINEall and buckets its top posteriors against
// correctness.
func (e *Env) Calibration(bins int) (*CalibrationResult, error) {
	m, err := e.newModel(e.Paths10, nil)
	if err != nil {
		return nil, err
	}
	if _, err := m.Learn(e.DS.Corpus); err != nil {
		return nil, err
	}
	var posteriors []float64
	var correct []bool
	for _, doc := range e.DS.Corpus.Docs {
		r, err := m.Link(doc)
		if err != nil {
			continue
		}
		posteriors = append(posteriors, r.Candidates[0].Posterior)
		correct = append(correct, r.Entity == doc.Gold)
	}
	cb, err := eval.Calibration(posteriors, correct, bins)
	if err != nil {
		return nil, err
	}
	return &CalibrationResult{Bins: cb, ECE: eval.ExpectedCalibrationError(cb)}, nil
}

// AmbiguityPoint is the accuracy over mentions with a given candidate
// count range.
type AmbiguityPoint struct {
	// MinCands and MaxCands bound the candidate set size, inclusive.
	MinCands, MaxCands int
	Mentions           int
	Accuracy           float64
}

// AmbiguityBreakdown slices SHINEall accuracy by how ambiguous each
// mention is. Expected shape: accuracy decreases with the candidate
// count, but far more slowly than the 1/|candidates| random baseline.
func (e *Env) AmbiguityBreakdown() ([]AmbiguityPoint, error) {
	m, err := e.newModel(e.Paths10, nil)
	if err != nil {
		return nil, err
	}
	if _, err := m.Learn(e.DS.Corpus); err != nil {
		return nil, err
	}
	ranges := []AmbiguityPoint{
		{MinCands: 2, MaxCands: 4},
		{MinCands: 5, MaxCands: 8},
		{MinCands: 9, MaxCands: 1 << 30},
	}
	correct := make([]int, len(ranges))
	for _, doc := range e.DS.Corpus.Docs {
		n := len(m.Candidates(doc.Mention))
		for ri := range ranges {
			if n < ranges[ri].MinCands || n > ranges[ri].MaxCands {
				continue
			}
			ranges[ri].Mentions++
			r, err := m.Link(doc)
			if err == nil && r.Entity == doc.Gold {
				correct[ri]++
			}
		}
	}
	var out []AmbiguityPoint
	for ri, rg := range ranges {
		if rg.Mentions == 0 {
			continue
		}
		rg.Accuracy = float64(correct[ri]) / float64(rg.Mentions)
		out = append(out, rg)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no mentions in any ambiguity range")
	}
	return out, nil
}

// NoisePoint is one noise level's accuracies.
type NoisePoint struct {
	NoiseTerms int
	VSim       float64
	SHINEall   float64
}

// NoiseSweep regenerates the document corpus at increasing noise
// levels over a fixed network and compares VSim with SHINEall.
// Expected shape: both degrade with noise, SHINE more slowly — the
// generic object model absorbs background vocabulary that corrupts a
// raw cosine.
func (e *Env) NoiseSweep(netCfg synth.DBLPConfig, docCfg synth.DocConfig, noiseLevels []int) ([]NoisePoint, error) {
	if len(noiseLevels) == 0 {
		noiseLevels = []int{0, 8, 16, 32}
	}
	data, err := synth.GenerateDBLP(netCfg)
	if err != nil {
		return nil, err
	}
	d := data.Schema
	ing, err := corpus.NewIngester(data.Graph, corpus.DBLPIngestConfig(d))
	if err != nil {
		return nil, err
	}

	var out []NoisePoint
	for _, noise := range noiseLevels {
		cfg := docCfg
		cfg.NoiseTerms = noise
		raws, err := synth.GenerateDocs(data, cfg)
		if err != nil {
			return nil, err
		}
		c := &corpus.Corpus{}
		for _, rd := range raws {
			c.Add(ing.Ingest(rd.ID, rd.Mention, rd.Gold, rd.Text))
		}

		vs, err := baselines.NewVSim(data.Graph, d.Author, nil, d.Author, d.Venue, d.Term, d.Year)
		if err != nil {
			return nil, err
		}
		vsSum, err := eval.Evaluate(vs, c)
		if err != nil {
			return nil, err
		}

		m, err := shine.New(data.Graph, d.Author, metapath.DBLPPaperPaths(d), c, shine.DefaultConfig())
		if err != nil {
			return nil, err
		}
		if _, err := m.Learn(c); err != nil {
			return nil, err
		}
		shSum, err := eval.Evaluate(eval.LinkerFunc(func(doc *corpus.Document) (hin.ObjectID, error) {
			r, err := m.Link(doc)
			if err != nil {
				return hin.NoObject, err
			}
			return r.Entity, nil
		}), c)
		if err != nil {
			return nil, err
		}
		out = append(out, NoisePoint{NoiseTerms: noise, VSim: vsSum.Accuracy, SHINEall: shSum.Accuracy})
	}
	return out, nil
}

// WalkAblationResult isolates the value of meta-path constraints:
// the same probabilistic model scored with unconstrained uniform
// random walks (the "intuitive way" Section 3.2 rejects) versus
// SHINE's constrained, weight-learned walks.
type WalkAblationResult struct {
	Unconstrained float64
	SHINEall      float64
}

// WalkAblation evaluates both variants on the environment corpus.
func (e *Env) WalkAblation() (*WalkAblationResult, error) {
	d := e.DS.Data.Schema
	uw, err := baselines.NewUWalk(e.DS.Data.Graph, d.Author, nil, e.DS.Corpus, 4, shine.DefaultConfig().Theta)
	if err != nil {
		return nil, err
	}
	uwSum, err := eval.Evaluate(uw, e.DS.Corpus)
	if err != nil {
		return nil, err
	}
	shSum, _, err := e.evaluateShine(e.Paths10, nil, e.DS.Corpus)
	if err != nil {
		return nil, err
	}
	return &WalkAblationResult{Unconstrained: uwSum.Accuracy, SHINEall: shSum.Accuracy}, nil
}

// NILPoint is one NIL-prior setting's evaluation over a corpus mixing
// in-network and out-of-network mentions.
type NILPoint struct {
	Prior float64
	// Accuracy is over all documents (NIL gold counts as correct only
	// when predicted NIL).
	Accuracy float64
	// NILRecall is the fraction of truly-NIL mentions predicted NIL;
	// FalseNILRate the fraction of in-network mentions wrongly
	// predicted NIL.
	NILRecall, FalseNILRate float64
}

// NILSweep evaluates the NIL extension: a corpus with out-of-network
// mentions mixed in, linked by LinkNIL under a range of priors.
// Expected shape: raising the prior trades false NILs for NIL recall,
// with overall accuracy peaking at a moderate prior.
func NILSweep(netCfg synth.DBLPConfig, docCfg synth.DocConfig, priors []float64) ([]NILPoint, error) {
	if len(priors) == 0 {
		priors = []float64{0.01, 0.05, 0.15, 0.3}
	}
	if docCfg.NILDocs == 0 {
		docCfg.NILDocs = docCfg.NumDocs / 4
	}
	ds, err := synth.BuildDataset(netCfg, docCfg)
	if err != nil {
		return nil, err
	}
	d := ds.Data.Schema
	m, err := shine.New(ds.Data.Graph, d.Author, metapath.DBLPPaperPaths(d), ds.Corpus, shine.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// Learn on the in-network portion only; learning is unsupervised
	// but NIL documents would pull weights towards impostor contexts.
	inNet := &corpus.Corpus{}
	for _, doc := range ds.Corpus.Docs {
		if doc.Gold != hin.NoObject {
			inNet.Add(doc)
		}
	}
	if _, err := m.Learn(inNet); err != nil {
		return nil, err
	}

	var out []NILPoint
	for _, prior := range priors {
		prior := prior
		s, err := eval.EvaluateNIL(eval.LinkerFunc(func(doc *corpus.Document) (hin.ObjectID, error) {
			r, err := m.LinkNIL(doc, prior)
			if err != nil {
				return hin.NoObject, err
			}
			return r.Entity, nil
		}), ds.Corpus)
		if err != nil {
			return nil, err
		}
		pt := NILPoint{Prior: prior, Accuracy: s.Accuracy}
		if s.GoldNIL > 0 {
			pt.NILRecall = float64(s.CorrectNIL) / float64(s.GoldNIL)
		}
		if inNetCount := s.Total - s.GoldNIL; inNetCount > 0 {
			pt.FalseNILRate = float64(s.FalseNIL) / float64(inNetCount)
		}
		out = append(out, pt)
	}
	return out, nil
}

// SignificanceResult reports McNemar's test between SHINEall and
// VSim over the environment corpus — the statistical backing for the
// paper's "significantly outperforms" claim.
type SignificanceResult struct {
	SHINEAccuracy, VSimAccuracy float64
	McNemar                     eval.McNemarResult
}

// Significance runs both systems on the full corpus and tests the
// difference.
func (e *Env) Significance() (*SignificanceResult, error) {
	d := e.DS.Data.Schema
	m, err := e.newModel(e.Paths10, nil)
	if err != nil {
		return nil, err
	}
	if _, err := m.Learn(e.DS.Corpus); err != nil {
		return nil, err
	}
	// VSim resolves candidates through the model's own source, so the
	// McNemar pairs share candidate sets by construction.
	vs, err := baselines.NewVSim(e.DS.Data.Graph, d.Author, m.CandidateSource(), d.Author, d.Venue, d.Term, d.Year)
	if err != nil {
		return nil, err
	}
	shLinker := eval.LinkerFunc(func(doc *corpus.Document) (hin.ObjectID, error) {
		r, err := m.Link(doc)
		if err != nil {
			return hin.NoObject, err
		}
		return r.Entity, nil
	})
	res := &SignificanceResult{}
	sh, err := eval.Evaluate(shLinker, e.DS.Corpus)
	if err != nil {
		return nil, err
	}
	vv, err := eval.Evaluate(vs, e.DS.Corpus)
	if err != nil {
		return nil, err
	}
	res.SHINEAccuracy, res.VSimAccuracy = sh.Accuracy, vv.Accuracy
	mc, err := eval.CompareLinkers(shLinker, vs, e.DS.Corpus)
	if err != nil {
		return nil, err
	}
	res.McNemar = mc
	return res, nil
}

// IMDBResult is the generality experiment: the unchanged model over
// the IMDb schema.
type IMDBResult struct {
	Documents int
	POP       float64
	SHINE     float64
	// EMIterations shows learning converged on the new schema too.
	EMIterations int
}

// IMDBComparison generates an IMDb dataset and runs actor linking
// with the paper's 14 actor meta-paths, against the POP baseline.
func IMDBComparison(cfg synth.IMDBConfig) (*IMDBResult, error) {
	data, err := synth.GenerateIMDB(cfg)
	if err != nil {
		return nil, err
	}
	res := &IMDBResult{Documents: data.Corpus.Len()}

	pop, err := baselines.NewPOP(data.Graph, data.Schema.Actor, nil, shine.DefaultConfig().PageRank)
	if err != nil {
		return nil, err
	}
	popSum, err := eval.Evaluate(pop, data.Corpus)
	if err != nil {
		return nil, err
	}
	res.POP = popSum.Accuracy

	m, err := shine.New(data.Graph, data.Schema.Actor, metapath.IMDBActorPaths(data.Schema), data.Corpus, shine.DefaultConfig())
	if err != nil {
		return nil, err
	}
	stats, err := m.Learn(data.Corpus)
	if err != nil {
		return nil, err
	}
	res.EMIterations = stats.EMIterations
	shSum, err := eval.Evaluate(eval.LinkerFunc(func(doc *corpus.Document) (hin.ObjectID, error) {
		r, err := m.Link(doc)
		if err != nil {
			return hin.NoObject, err
		}
		return r.Entity, nil
	}), data.Corpus)
	if err != nil {
		return nil, err
	}
	res.SHINE = shSum.Accuracy
	return res, nil
}
