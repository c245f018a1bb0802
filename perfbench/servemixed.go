package main

// serve-mixed: an in-process serve.Server with a fresh store on a real
// localhost listener. nproc clients run a closed loop — each waits for its
// reply (?wait=1) before sending the next job — over the seed's sessions of
// one-cell scenario documents. Cold jobs simulate and persist their cell
// (store writes); repeats are answered from the store (store reads).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"specasan/internal/harness"
	"specasan/internal/scenario"
	"specasan/internal/serve"
	"specasan/internal/store"
)

// serveInstance is one running server and the client that talks to it.
type serveInstance struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	dir    string
}

// startServe starts a server as a user would: a fresh store directory, the
// server and its worker pool, and a listener on a free localhost port.
// Connections queue on the listener from here on; ready proves the server
// answers.
func startServe(e *env) (*serveInstance, error) {
	dir, err := os.MkdirTemp(filepath.Join(e.work, "tmp"), "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{StoreDir: filepath.Join(dir, "store"), Workers: e.workers})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		os.RemoveAll(dir)
		return nil, err
	}
	si := &serveInstance{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		url: "http://" + ln.Addr().String(), dir: dir,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: e.workers}},
	}
	go func() { si.served <- si.hs.Serve(ln) }()
	return si, nil
}

// ready makes one health round trip, which a client waits for before it
// sends jobs.
func (si *serveInstance) ready() error {
	resp, err := si.client.Get(si.url + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// stop shuts the listener and the server down, waits for both, and removes
// the store.
func (si *serveInstance) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	si.hs.Shutdown(ctx)
	<-si.served
	si.srv.Drain()
	si.client.CloseIdleConnections()
	os.RemoveAll(si.dir)
}

// submit posts one job and waits for its result document.
func (si *serveInstance) submit(doc []byte) ([]byte, error) {
	resp, err := si.client.Post(si.url+"/v1/sweep?wait=1", "application/json", bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Failed-Cells") != "" {
		return nil, fmt.Errorf("status %s, failed cells %q: %s", resp.Status, resp.Header.Get("X-Failed-Cells"), bytes.TrimSpace(body))
	}
	return body, nil
}

// serveStats fetches /stats.
func (si *serveInstance) serveStats() (map[string]json.RawMessage, error) {
	resp, err := si.client.Get(si.url + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	return doc, json.NewDecoder(resp.Body).Decode(&doc)
}

// jobResult is one job's reply and its client-observed latency.
type jobResult struct {
	body    []byte
	err     error
	start   time.Time
	latency time.Duration
}

// serveRound starts a fresh server and runs every session against it: nproc
// closed-loop clients take whole sessions from a shared queue. It returns
// the round's cost, from starting the server to the last reply, and every
// job's reply. Starting the server belongs to the round, not the set-up:
// its CPU time is mostly kernel file and socket calls, which took 0.6 to
// 2.6 ms between runs of the same code, too unsteady to gate as a set-up
// and small beside a round's jobs.
func serveRound(e *env, sessions [][]serveJob) (cost, [][]jobResult, *serveInstance, error) {
	w := startWatch()
	si, err := startServe(e)
	if err != nil {
		return cost{}, nil, nil, err
	}
	if err := si.ready(); err != nil {
		si.stop()
		return cost{}, nil, nil, err
	}
	results := make([][]jobResult, len(sessions))
	next := make(chan int, len(sessions)) // holds every session index up front
	for i := range sessions {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for c := 0; c < e.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				results[s] = make([]jobResult, len(sessions[s]))
				for j, job := range sessions[s] {
					jt := time.Now()
					body, err := si.submit(job.doc)
					results[s][j] = jobResult{body: body, err: err, start: jt, latency: time.Since(jt)}
				}
			}
		}()
	}
	wg.Wait()
	return w.stop(), results, si, nil
}

// servedCell decodes the single perf cell of a result document.
func servedCell(body []byte) (cellRef, error) {
	var doc serve.ResultDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return cellRef{}, err
	}
	if len(doc.Cells) != 1 || doc.Cells[0].Perf == nil {
		return cellRef{}, fmt.Errorf("want one perf cell, got %d", len(doc.Cells))
	}
	p := doc.Cells[0].Perf
	return cellRef{Cycles: p.Cycles, Committed: p.Committed, Restricted: p.Restricted, OutputSHA: digest([]byte(p.Output))}, nil
}

// checkServe checks a round's replies: every job answered, every repeat
// byte-identical to its cold reply, and every cold cell's committed count and
// output equal to the golden interpreter's.
func checkServe(out *outcome, sessions [][]serveJob, results [][]jobResult, oracle map[string]cellRef) {
	for s, jobs := range sessions {
		for j, job := range jobs {
			out.attempted++
			r := results[s][j]
			switch {
			case r.err != nil:
				out.fail("session %d job %d: %v", s, j, r.err)
			case job.repeatOf >= 0:
				if !bytes.Equal(r.body, results[s][job.repeatOf].body) {
					out.fail("session %d job %d: cached reply differs from the cold reply of job %d", s, j, job.repeatOf)
				}
			default:
				got, err := servedCell(r.body)
				if err != nil {
					out.fail("session %d job %d: %v", s, j, err)
					continue
				}
				g, err := serveGolden(oracle, job)
				if err != nil {
					out.fail("session %d job %d: golden: %v", s, j, err)
				} else if got.Committed != g.Committed || got.OutputSHA != g.OutputSHA {
					out.fail("session %d job %d: committed=%d output=%s, golden committed=%d output=%s",
						s, j, got.Committed, got.OutputSHA, g.Committed, g.OutputSHA)
				}
			}
		}
	}
}

// serveGolden returns the golden reference of a job's build, memoised per
// run in oracle.
func serveGolden(oracle map[string]cellRef, job serveJob) (cellRef, error) {
	k := fmt.Sprintf("%s|%g|%v", job.kernel, job.scale, job.mit.MTEEnabled())
	if g, ok := oracle[k]; ok {
		return g, nil
	}
	g, err := goldenWalk(poolEntry{job.kernel, job.scale}.spec(), job.mit.MTEEnabled())
	if err == nil {
		oracle[k] = g
	}
	return g, err
}

// serveOracle walks every cold job's program on the golden interpreter, once
// per run outside the timed set-up: the reference each served cell is
// checked against.
func serveOracle(sessions [][]serveJob) (map[string]cellRef, error) {
	oracle := map[string]cellRef{}
	for _, jobs := range sessions {
		for _, job := range jobs {
			if _, err := serveGolden(oracle, job); err != nil {
				return nil, fmt.Errorf("golden %s: %w", job.kernel, err)
			}
		}
	}
	return oracle, nil
}

func runServe(e *env) (*outcome, error) {
	if err := os.MkdirAll(filepath.Join(e.work, "tmp"), 0o755); err != nil {
		return nil, err
	}
	// The set-up is drawing the job stream; each round starts its server.
	var sessions [][]serveJob
	setup, err := timeSetup(func() (func(), error) {
		sessions = drawServe(e.seed)
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	oracle, err := serveOracle(sessions)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	costs, rss, err := measureRounds(e.seconds, func() (cost, error) {
		c, results, si, err := serveRound(e, sessions)
		if err != nil {
			return cost{}, err
		}
		si.stop()
		checkServe(out, sessions, results, oracle)
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	out.metrics = endToEndMetrics(setup, costs, rss, serveSessions*serveSessionJobs)
	return out, nil
}

// tracedServe alternates untraced rounds with traced ones. A traced round
// records each job's client-observed latency, reads the server's /stats, and
// then replays the job stream directly against the layers the server reaches
// internally — scenario parse and hash, store get and put, harness.RunCell —
// on a fresh store, so their costs are measured on the same inputs. The
// replayed cells must equal the served ones.
func tracedServe(e *env) (*outcome, error) {
	if err := os.MkdirAll(filepath.Join(e.work, "tmp"), 0o755); err != nil {
		return nil, err
	}
	sessions := drawServe(e.seed)
	oracle, err := serveOracle(sessions)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	out.metrics, err = tracedRounds(e, "serve-mixed", func() (time.Duration, time.Duration, *tracer, error) {
		plain, results, si, err := serveRound(e, sessions)
		if err != nil {
			return 0, 0, nil, err
		}
		si.stop()
		checkServe(out, sessions, results, oracle)

		tr := newTracer()
		traced, results, si, err := serveRound(e, sessions)
		if err != nil {
			return 0, 0, nil, err
		}
		stats, err := si.serveStats()
		si.stop()
		if err != nil {
			return 0, 0, nil, err
		}
		checkServe(out, sessions, results, oracle)
		op := 0
		for s, jobs := range sessions {
			for j, job := range jobs {
				ms := 1e3 * results[s][j].latency.Seconds()
				if job.repeatOf >= 0 {
					tr.sample("serve.cached_job_ms", ms)
				} else {
					tr.sample("serve.cold_job_ms", ms)
				}
				tr.record("serve.job", results[s][j].start, results[s][j].latency, op)
				op++
			}
		}
		if err := recordServeStats(tr, stats); err != nil {
			return 0, 0, nil, err
		}
		if err := replayServe(tr, out, e, sessions, results); err != nil {
			return 0, 0, nil, err
		}
		return plain.wall, traced.wall, tr, nil
	})
	return out, err
}

// recordServeStats takes the server's own counters and cell latency
// histogram from its /stats document.
func recordServeStats(tr *tracer, stats map[string]json.RawMessage) error {
	var counters struct {
		JobsRejected uint64 `json:"jobs_rejected"`
		CellsCached  uint64 `json:"cells_cached"`
	}
	var latency []struct {
		Name string `json:"name"`
		P50  uint64 `json:"p50"`
	}
	if err := json.Unmarshal(stats["counters"], &counters); err != nil {
		return fmt.Errorf("/stats counters: %w", err)
	}
	if err := json.Unmarshal(stats["cell_latency"], &latency); err != nil {
		return fmt.Errorf("/stats cell_latency: %w", err)
	}
	tr.set("serve.jobs_rejected", float64(counters.JobsRejected))
	tr.set("serve.cells_cached", float64(counters.CellsCached))
	for _, h := range latency {
		if h.Name == "cell_latency_ms" {
			tr.set("serve.cell_latency_p50_ms", float64(h.P50))
		}
	}
	return nil
}

// replayServe calls the layers behind the server directly, job by job in
// session order, on a fresh store: parse and hash the document, look the cell
// up, and on a miss run it and store it. A job's serve overhead is its served
// latency minus its replayed cell latency (lookup, run and store).
func replayServe(tr *tracer, out *outcome, e *env, sessions [][]serveJob, results [][]jobResult) error {
	dir, err := os.MkdirTemp(filepath.Join(e.work, "tmp"), "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	cells := harness.DiskCellStore{S: st}
	op := 0
	for s, jobs := range sessions {
		for j, job := range jobs {
			sp := tr.begin("scenario.parse", -1, op)
			scn, err := scenario.Parse(job.doc, "job", "submitted")
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin("scenario.hash", -1, op)
			scn.Hash()
			rh := scn.ResultHash()
			tr.end(sp)
			specs, err := scn.WorkloadSpecs()
			if err != nil {
				return err
			}
			mits, err := scn.MitigationList()
			if err != nil {
				return err
			}
			var cellTime time.Duration
			sp = tr.begin("store.get", -1, op)
			cr, ok := cells.GetCell(rh, specs[0].Name, mits[0].String())
			cellTime += tr.end(sp)
			if !ok {
				opt := harness.OptionsFromScenario(scn)
				sp = tr.begin("harness.cell", -1, op)
				r, _, err := harness.RunCell(specs[0], mits[0], opt)
				cellTime += tr.end(sp)
				if err != nil {
					return err
				}
				cr = harness.CellResultOf(r)
				sp = tr.begin("store.put", -1, op)
				cells.PutCell(rh, cr)
				cellTime += tr.end(sp)
			}
			tr.sample("serve.overhead_ms", 1e3*(results[s][j].latency-cellTime).Seconds())

			out.attempted++
			served, err := servedCell(results[s][j].body)
			if err == nil {
				replayed := cellRef{Cycles: cr.Cycles, Committed: cr.Committed, Restricted: cr.Restricted, OutputSHA: digest([]byte(cr.Output))}
				if d := replayed.diff(served); d != "" {
					err = errors.New(d)
				}
			}
			if err != nil {
				out.fail("replayed session %d job %d: %v", s, j, err)
			}
			op++
		}
	}
	c := st.Stats()
	tr.set("store.hits", float64(c.Hits))
	tr.set("store.misses", float64(c.Misses))
	tr.set("store.puts", float64(c.Puts))
	return nil
}
