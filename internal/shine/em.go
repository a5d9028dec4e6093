package shine

import (
	"math"
	"math/rand"
	"time"

	"shine/internal/corpus"
)

// LearnStats reports what the EM learner did.
type LearnStats struct {
	// EMIterations is the number of outer EM iterations run.
	EMIterations int
	// GDIterations is the total number of inner gradient ascent
	// iterations across all M-steps.
	GDIterations int
	// Objective traces the M-step objective J (Formula 22) at the end
	// of each EM iteration, under that iteration's posterior. The
	// trace is not necessarily monotone, because the posterior (and
	// with it the dropped popularity term of Formula 19) changes
	// between iterations; the within-M-step guarantee is MStepGain.
	Objective []float64
	// MStepGain traces, per EM iteration, the objective improvement
	// achieved by the M-step under that iteration's fixed posterior.
	// With backtracking line search it is never negative.
	MStepGain []float64
	// Weights traces the weight vector after each EM iteration.
	Weights [][]float64
	// SkippedMentions counts documents with no candidate entities.
	SkippedMentions int
	// Converged reports whether the weight vector stabilised before
	// MaxEMIterations.
	Converged bool
	// PrepareTime is the wall-clock duration of the corpus
	// preparation phase (the per-mention meta-path walk precompute),
	// which runs once before the EM loop and dominates cold-cache
	// training cost.
	PrepareTime time.Duration
	// EMIterTime and GDIterTime are the average wall-clock durations
	// of one EM iteration and one inner gradient iteration — the
	// quantities plotted in the paper's Figure 4(a).
	EMIterTime, GDIterTime time.Duration
}

// Learn fits the meta-path weights on a document collection by
// expectation-maximisation (Algorithm 1), without any labelled data:
// it maximises the likelihood of observing the mentions M in the
// document collection D. On success the model's weights are updated
// in place and the learning trace is returned. Gold labels in the
// corpus are ignored — learning is fully unsupervised.
//
// Preparation, the E-step and the M-step reductions fan out across
// cfg.Workers goroutines; the blocked fixed-order merges (see
// accumulate.go) make the learned weights bit-for-bit identical for
// every worker count. Learn may run concurrently with Link calls —
// readers see the old weight vector until the final install — but
// must not race with another Learn or SetWeights.
func (m *Model) Learn(c *corpus.Corpus) (*LearnStats, error) {
	prepStart := time.Now()
	mds, skipped, err := m.prepareCorpus(c)
	if err != nil {
		return nil, err
	}
	stats := &LearnStats{SkippedMentions: skipped, PrepareTime: time.Since(prepStart)}
	m.metrics.observeEMPrepare(prepStart)
	workers := m.workers()

	// Algorithm 1 line 1–3: initialise every weight to zero. The
	// model then scores candidates by popularity and the generic
	// object model alone, which bootstraps the first E-step.
	w := make([]float64, len(m.paths))

	// Per-mention posterior storage for the E-step.
	post := make([][]float64, len(mds))
	for i, md := range mds {
		post[i] = make([]float64, len(md.cands))
	}

	rng := rand.New(rand.NewSource(1)) // deterministic SGD batches
	emStart := time.Now()
	prev := append([]float64(nil), w...)
	for iter := 0; iter < m.cfg.MaxEMIterations; iter++ {
		iterStart := time.Now()
		// E-step (Formula 18): E(π(m,d,e)) = P(m,d,e) / Σ_e' P(m,d,e').
		// Mentions are independent and each writes only its own
		// posterior row, so the per-item fan-out is deterministic.
		parallelFor(len(mds), workers, func(i int) {
			md := mds[i]
			logs := make([]float64, len(md.cands))
			for ci := range md.cands {
				logs[ci] = m.logJoint(md, ci, w)
			}
			copy(post[i], softmax(logs))
		})

		// M-step: maximise J(w) = Σ f(m,d,e) ln P(d|e) by projected
		// gradient ascent on the weight simplex (Formulas 22–24 plus
		// the normalisation step of Algorithm 1 line 13).
		gd, jBefore, jAfter := m.maximize(mds, post, w, rng)
		stats.GDIterations += gd

		stats.EMIterations = iter + 1
		stats.Objective = append(stats.Objective, jAfter)
		stats.MStepGain = append(stats.MStepGain, jAfter-jBefore)
		stats.Weights = append(stats.Weights, append([]float64(nil), w...))
		m.metrics.observeEMIteration(iterStart, jAfter)

		delta := 0.0
		for k := range w {
			delta += math.Abs(w[k] - prev[k])
		}
		copy(prev, w)
		if delta < m.cfg.EMTolerance {
			stats.Converged = true
			break
		}
	}
	if stats.EMIterations > 0 {
		stats.EMIterTime = time.Since(emStart) / time.Duration(stats.EMIterations)
	}
	if stats.GDIterations > 0 {
		stats.GDIterTime = time.Since(emStart) / time.Duration(stats.GDIterations)
	}

	m.installWeights(w)
	return stats, nil
}

// objective evaluates J (Formula 22) over all mentions under the
// current posteriors, as a blocked fixed-order reduction across
// cfg.Workers goroutines.
func (m *Model) objective(mds []*mentionData, post [][]float64, w []float64) float64 {
	theta := m.cfg.Theta
	return reduceSum(len(mds), m.workers(), func(lo, hi int) float64 {
		j := 0.0
		for i := lo; i < hi; i++ {
			md := mds[i]
			for ci := range md.cands {
				f := post[i][ci]
				if f == 0 {
					continue
				}
				prof := &md.cands[ci]
				for oi := range md.counts {
					pe := 0.0
					for pi := range w {
						pe += w[pi] * prof.pathProb[pi][oi]
					}
					pv := theta*pe + (1-theta)*md.generic[oi]
					j += f * md.counts[oi] * math.Log(math.Max(pv, m.cfg.ProbFloor))
				}
			}
		}
		return j
	})
}

// gradient accumulates ∂J/∂w_p (Formula 24) over the given mention
// subset into grad, as a blocked fixed-order reduction across
// cfg.Workers goroutines.
func (m *Model) gradient(mds []*mentionData, post [][]float64, w []float64, subset []int, grad []float64) {
	theta := m.cfg.Theta
	sum := reduceVecSum(len(subset), len(grad), m.workers(), func(lo, hi int, acc []float64) {
		for _, i := range subset[lo:hi] {
			md := mds[i]
			for ci := range md.cands {
				f := post[i][ci]
				if f == 0 {
					continue
				}
				prof := &md.cands[ci]
				for oi := range md.counts {
					pe := 0.0
					for pi := range w {
						pe += w[pi] * prof.pathProb[pi][oi]
					}
					pv := theta*pe + (1-theta)*md.generic[oi]
					if pv < m.cfg.ProbFloor {
						pv = m.cfg.ProbFloor
					}
					scale := f * md.counts[oi] * theta / pv
					for pi := range w {
						acc[pi] += scale * prof.pathProb[pi][oi]
					}
				}
			}
		}
	})
	copy(grad, sum)
}

// maximize runs the inner gradient ascent loop of Algorithm 1 (lines
// 9–15), updating w in place. It returns the number of iterations
// performed and the objective J at the initial and at the final w —
// jCur always holds J of the current w, so neither needs another
// full-corpus pass. Each accepted step is projected back onto the
// weight simplex: negative weights clamp to zero ("we do not consider
// negative w_p") and the vector is renormalised to Σw_p = 1.
func (m *Model) maximize(mds []*mentionData, post [][]float64, w []float64, rng *rand.Rand) (iters int, jStart, jEnd float64) {
	all := make([]int, len(mds))
	for i := range all {
		all[i] = i
	}
	grad := make([]float64, len(w))
	trial := make([]float64, len(w))

	jStart = m.objective(mds, post, w)
	jCur := jStart
	step := m.cfg.LearningRate
	for t := 0; t < m.cfg.MaxGDIterations; t++ {
		subset := all
		if m.cfg.SGDBatch > 0 && m.cfg.SGDBatch < len(mds) {
			subset = make([]int, m.cfg.SGDBatch)
			for k := range subset {
				subset[k] = rng.Intn(len(mds))
			}
		}
		m.gradient(mds, post, w, subset, grad)

		gInf := 0.0
		for _, g := range grad {
			if a := math.Abs(g); a > gInf {
				gInf = a
			}
		}
		if gInf == 0 {
			break
		}

		if m.cfg.LearningRate > 0 {
			// Paper-faithful fixed step α.
			for k := range w {
				trial[k] = w[k] + step*grad[k]
			}
			project(trial)
			copy(w, trial)
			iters++
			jNew := m.objective(mds, post, w)
			if converged(jCur, jNew, m.cfg.GDTolerance) {
				jCur = jNew
				break
			}
			jCur = jNew
			continue
		}

		// Backtracking line search: start from a step that moves the
		// largest coordinate by ~0.25 and halve until J does not
		// decrease. This automates the paper's requirement that α be
		// "small enough to guarantee the increase of the objective".
		s := 0.25 / gInf
		improved := false
		for bt := 0; bt < 40; bt++ {
			for k := range w {
				trial[k] = w[k] + s*grad[k]
			}
			project(trial)
			jNew := m.objective(mds, post, trial)
			if jNew >= jCur {
				done := converged(jCur, jNew, m.cfg.GDTolerance)
				copy(w, trial)
				jCur = jNew
				improved = true
				iters++
				if done {
					return iters, jStart, jCur
				}
				break
			}
			s /= 2
		}
		if !improved {
			break
		}
	}
	return iters, jStart, jCur
}

// converged reports whether the relative objective change is below
// tol.
func converged(jOld, jNew, tol float64) bool {
	return math.Abs(jNew-jOld) <= tol*(math.Abs(jOld)+1)
}

// project maps a weight vector onto the simplex: negatives clamp to
// zero, then the vector is renormalised. An all-zero vector is left
// as zeros (the model then relies on the generic object model alone).
func project(w []float64) {
	sum := 0.0
	for k := range w {
		if w[k] < 0 {
			w[k] = 0
		}
		sum += w[k]
	}
	if sum == 0 {
		return
	}
	for k := range w {
		w[k] /= sum
	}
}
