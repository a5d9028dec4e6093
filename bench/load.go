package main

import (
	"bytes"
	"io"
	"net/http"
	"time"
)

// windows is how many equal slices the measured phase is cut into.
// Each latency metric is the median over the windows of that window's
// percentile, so a burst of host noise moves it only if it reaches half
// the windows.
const windows = 8

// phase is one timed stretch of load: warm-up or the measured phase.
type phase struct {
	start time.Time
	dur   time.Duration
}

func newPhase(d time.Duration) phase { return phase{time.Now(), d} }

func (p phase) end() time.Time { return p.start.Add(p.dur) }

// sample is what the client measured in one phase, op by op in the
// order the ops completed.
type sample struct {
	start time.Time
	dur   time.Duration
	// end holds each op's completion in seconds since the phase began,
	// lat its latency from send in ms.
	end, lat []float64
	gap      []float64 // client time between a reply and the next send, ms

	attempted, failed int
	errs              []string       // the first failures, for the log
	acc               map[int][2]int // scored item -> {correct, labelled}
}

func newSample(ph phase) *sample { return &sample{start: ph.start, dur: ph.dur, acc: map[int][2]int{}} }

// op records one completed op whose latency runs from `from`.
func (s *sample) op(from, end time.Time) {
	s.end = append(s.end, end.Sub(s.start).Seconds())
	s.lat = append(s.lat, ms(end.Sub(from)))
}

func (s *sample) fail(n int, err error) {
	s.failed += n
	if len(s.errs) < 3 {
		s.errs = append(s.errs, err.Error())
	}
}

func (s *sample) score(key int, correct bool) {
	c := 0
	if correct {
		c = 1
	}
	s.acc[key] = [2]int{c, 1}
}

// accuracy is the share of scored answers that name the gold entity.
func (s *sample) accuracy() float64 {
	c, n := 0, 0
	for _, v := range s.acc {
		c += v[0]
		n += v[1]
	}
	if n == 0 {
		return 0
	}
	return float64(c) / float64(n)
}

// window is one slice of the measured phase: ops completed per second
// and the latency percentiles of those ops.
type window struct {
	rate, p50, p90 float64
}

// perWindow cuts the phase into equal slices by completion time. The
// op in flight when the phase ends counts in the last slice; a slice in
// which no op completed has rate 0 and no percentiles.
func (s *sample) perWindow() []window {
	w := s.dur.Seconds() / windows
	var lat [windows][]float64
	for i, e := range s.end {
		k := min(int(e/w), windows-1)
		lat[k] = append(lat[k], s.lat[i])
	}
	out := make([]window, windows)
	for i, l := range lat {
		out[i].rate = float64(len(l)) / w
		if len(l) > 0 {
			out[i].p50, out[i].p90 = percentile(l, 50), percentile(l, 90)
		}
	}
	return out
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// opFunc sends one op, records it in s and returns when it was sent
// and when its reply was read.
type opFunc func(s *sample) (sent, end time.Time)

// closedLoop is one client over one connection that sends its next op
// as soon as it has checked the previous reply, until the phase ends.
// With a single client the server never has two requests of the run at
// once, so on a two-core host the measurement does not depend on how
// the scheduler interleaves several clients with the server.
func closedLoop(ph phase, op opFunc) *sample {
	s := newSample(ph)
	var prev time.Time
	for time.Now().Before(ph.end()) {
		sent, end := op(s)
		if !prev.IsZero() {
			s.gap = append(s.gap, ms(sent.Sub(prev)))
		}
		prev = end
	}
	return s
}

// inputs is one run's seeded request stream.
type inputs struct {
	ds    *dataset
	o     *oracle
	links [][]byte // /v1/link bodies in request order
	pages []page
}

// newLoad returns the workload's op. Its position in the request
// stream carries over from the warm-up to the measured phase.
func newLoad(workload string, in *inputs, c *http.Client, base string) opFunc {
	url := base + endpoint(workload)
	next := 0
	if workload == "annotate" {
		return func(s *sample) (time.Time, time.Time) {
			k := next % len(in.pages)
			next++
			return annotateOp(s, in, c, url, k)
		}
	}
	return func(s *sample) (time.Time, time.Time) {
		k := next % len(in.links)
		next++
		return linkOp(s, in, c, url, k)
	}
}

// linkOp posts request-order position k of the pool to /v1/link.
func linkOp(s *sample, in *inputs, c *http.Client, url string, k int) (time.Time, time.Time) {
	doc := in.ds.order[k]
	s.attempted++
	sent := time.Now()
	code, body, err := post(c, url, in.links[k])
	end := time.Now()
	if err != nil {
		s.fail(1, err)
		return sent, end
	}
	s.op(sent, end)
	e, err := in.o.checkLink(doc, code, body)
	if err != nil {
		s.fail(1, err)
		return sent, end
	}
	s.score(doc, e == in.ds.docs[doc].Gold)
	return sent, end
}

// annotateOp posts page k to /v1/annotate.
func annotateOp(s *sample, in *inputs, c *http.Client, url string, k int) (time.Time, time.Time) {
	s.attempted++
	sent := time.Now()
	code, body, err := post(c, url, in.pages[k].body)
	end := time.Now()
	if err != nil {
		s.fail(1, err)
		return sent, end
	}
	s.op(sent, end)
	anns, err := in.o.checkAnnotate(k, code, body)
	if err != nil {
		s.fail(1, err)
		return sent, end
	}
	correct, n := pageAccuracy(in.ds, in.pages[k], anns)
	s.acc[k] = [2]int{correct, n}
	return sent, end
}
