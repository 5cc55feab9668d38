package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"ccl/internal/bench"
	"ccl/internal/cache"
	"ccl/internal/oracle"
	"ccl/internal/serve"
	"ccl/internal/trace"
)

// The request mix: per hundred requests a client sends, mixReplay raw
// trace uploads, mixTable1 table1 specs and the rest multicore specs,
// in a seeded order. Each client is its own tenant and sends its next
// request only after the previous stream ended (a closed loop).
const (
	clients       = 2
	mixLen        = 100
	mixReplay     = 70
	mixTable1     = 27
	minRecords    = 4 << 10
	maxRecords32K = 32 << 10
	requestLimit  = 30 * time.Second
	// serverStarts is how many servers a run starts for setup_s: a
	// start takes well under a millisecond, so it takes many to get
	// a steady median.
	serverStarts = 31
)

// request is one pre-built submission and the result line it must
// produce.
type request struct {
	kind    string // "replay", "table1" or "multicore"
	path    string
	body    []byte
	spec    serve.Spec // the equivalent JSON spec, for the reference
	want    []byte     // serve.ReferenceResult's line
	records int        // replay records
	cycles  int64      // simulated cycles of a replay
	misses  int64      // its last-level misses
}

// sample is one request as a client saw it, in host ns.
type sample struct {
	sent, headers, result, eof int64
	ok, rejected, retried      bool
	class                      string
	records                    int
}

// buildMix makes each client's request cycle and computes every
// reference result. It runs before any clock starts.
func buildMix(seed int64) ([][]*request, error) {
	mixes := make([][]*request, clients)
	for c := range mixes {
		tenant := fmt.Sprintf("bench-c%d", c)
		rng := rngFor(seed, tenant, 0)
		kinds := make([]string, 0, mixLen)
		for i := 0; i < mixLen; i++ {
			switch {
			case i < mixReplay:
				kinds = append(kinds, "replay")
			case i < mixReplay+mixTable1:
				kinds = append(kinds, "table1")
			default:
				kinds = append(kinds, "multicore")
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		// Upload p of a cycle has size minRecords + p/(mixReplay-1) of
		// the range and the geometry of sweep cell p. Only the order and
		// the records depend on the seed, so every seed replays the same
		// (size, geometry) pairs and the same simulated work.
		sizes := rng.Perm(mixReplay)
		shared := map[string]*request{}
		for g, kind := range kinds {
			if r, ok := shared[kind]; ok {
				mixes[c] = append(mixes[c], r)
				continue
			}
			r := &request{kind: kind, spec: serve.Spec{Schema: serve.SpecSchema, Tenant: tenant, Seed: seed}}
			if kind == "replay" {
				p := sizes[len(sizes)-1]
				sizes = sizes[:len(sizes)-1]
				n := minRecords + p*(maxRecords32K-minRecords)/(mixReplay-1)
				tr := trace.Trace{
					Config:  oracle.SweepTrace(0, p, 1).Config,
					Records: oracle.SweepTrace(seed+int64(c), g, n).Records,
				}
				r.body = tr.Encode()
				r.records = len(tr.Records)
				r.path = fmt.Sprintf("/v1/replay?tenant=%s&seed=%d", tenant, seed)
				r.spec.TraceB64 = base64.StdEncoding.EncodeToString(r.body)
			} else {
				r.spec.Experiments = []string{kind}
				b, err := json.Marshal(r.spec)
				if err != nil {
					return nil, err
				}
				r.body, r.path = b, "/v1/jobs"
				shared[kind] = r
			}
			want, err := serve.ReferenceResult(context.Background(), r.spec, false, serve.Config{})
			if err != nil {
				return nil, fmt.Errorf("reference for %s: %w", kind, err)
			}
			r.want = want
			if kind == "replay" {
				if r.cycles, r.misses, err = replayFingerprint(want); err != nil {
					return nil, err
				}
			}
			mixes[c] = append(mixes[c], r)
		}
	}
	return mixes, nil
}

// replayFingerprint reads the cycles and last-level misses a replay's
// result reports.
func replayFingerprint(line []byte) (cycles, misses int64, err error) {
	var ev serve.Event
	if err := json.Unmarshal(line, &ev); err != nil {
		return 0, 0, err
	}
	for _, t := range ev.Result.Report.Experiments {
		if t.ID == "upload-replay" && len(t.Rows) == 1 && len(t.Rows[0]) == 3 {
			if cycles, err = strconv.ParseInt(t.Rows[0][1], 10, 64); err != nil {
				return 0, 0, err
			}
			misses, err = strconv.ParseInt(t.Rows[0][2], 10, 64)
			return cycles, misses, err
		}
	}
	return 0, 0, fmt.Errorf("replay result has no upload-replay row")
}

// startServer starts an in-process cclserve behind httptest and waits
// for its first /healthz 200.
func startServer() (*httptest.Server, *http.Client, error) {
	s := serve.New(serve.Config{})
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.BaseContext = func(net.Listener) context.Context { return s.BaseContext() }
	ts.Start()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	for i := 0; ; i++ {
		resp, err := client.Get(ts.URL + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ts, client, nil
			}
		}
		if i == 100 {
			ts.Close()
			return nil, nil, fmt.Errorf("server never became healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// send submits r and reads its stream to the end.
func send(client *http.Client, base string, r *request) (sample, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestLimit)
	defer cancel()
	var s sample
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return s, nil, err
	}
	s.sent = nowNs()
	resp, err := client.Do(req)
	if err != nil {
		return s, nil, err
	}
	defer resp.Body.Close()
	s.headers = nowNs()
	if resp.StatusCode != http.StatusOK {
		var eb struct {
			Class string `json:"class"`
		}
		json.NewDecoder(resp.Body).Decode(&eb)
		s.rejected, s.class = true, eb.Class
		s.result, s.eof = nowNs(), nowNs()
		return s, nil, nil
	}
	var line []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), serve.MaxSpecBytes)
	for sc.Scan() {
		var ev struct {
			Event  string        `json:"event"`
			Result *serve.Result `json:"result"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Event == "result" {
			s.result = nowNs()
			line = append([]byte(nil), sc.Bytes()...)
			s.retried = ev.Result != nil && ev.Result.Attempts > 1
		}
	}
	s.eof = nowNs()
	return s, line, sc.Err()
}

// clientLoop sends c's request cycle until stop, checking each result
// against its reference.
func clientLoop(client *http.Client, base string, mix []*request, start int, stop time.Time, tr *tracer) (out []sample, fails []string) {
	for i := start; time.Now().Before(stop); i++ {
		r := mix[i%len(mix)]
		tr.begin("serve.request."+r.kind, int64(i))
		s, line, err := send(client, base, r)
		if tr != nil {
			tr.leaf(tr.name("serve.admit_queue"), s.sent, s.headers, int64(i))
			if !s.rejected {
				tr.leaf(tr.name("serve.run"), s.headers, s.result, int64(i))
				tr.leaf(tr.name("serve.stream"), s.result, s.eof, int64(i))
			}
		}
		tr.end()
		s.records = r.records
		switch {
		case err != nil:
			fails = append(fails, fmt.Sprintf("%s: %v", r.kind, err))
		case s.rejected:
			tr.count("serve.rejected", s.class, 1)
			fails = append(fails, fmt.Sprintf("%s: rejected (%s)", r.kind, s.class))
		case !bytes.Equal(line, r.want):
			fails = append(fails, fmt.Sprintf("%s: result differs from the reference:\n got %.300s\nwant %.300s", r.kind, line, r.want))
		default:
			s.ok = true
		}
		out = append(out, s)
	}
	return out, fails
}

// drive runs the clients for d and returns their samples.
func drive(rep *report, client *http.Client, base string, mixes [][]*request, start []int, d time.Duration, tr *tracer) ([]sample, float64) {
	stop := time.Now().Add(d)
	samples := make([][]sample, clients)
	fails := make([][]string, clients)
	tracers := make([]*tracer, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		if tr != nil {
			tracers[c] = newTracer()
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			samples[c], fails[c] = clientLoop(client, base, mixes[c], start[c], stop, tracers[c])
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	var all []sample
	for c := 0; c < clients; c++ {
		start[c] += len(samples[c])
		all = append(all, samples[c]...)
		for i, f := range fails[c] {
			if i < 3 {
				checkf(rep, "cclserve client %d: %s", c, f)
			}
		}
		rep.ops(int64(len(samples[c])), int64(len(fails[c])))
		if tr != nil {
			tr.merge(tracers[c])
		}
	}
	return all, elapsed
}

// windowSize is the completed requests per measurement window, so
// that more than ten of a window's requests lie beyond its p99.
const windowSize = 1000

// windows splits the completed requests, in completion order, into
// windows of windowSize (one window if there are fewer) and returns
// each window's completion rate and latency percentiles in ms.
func windows(samples []sample, start int64) (rate, p50, p99 []float64) {
	var ok []sample
	for _, s := range samples {
		if s.ok {
			ok = append(ok, s)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].result < ok[j].result })
	for lo := 0; lo < len(ok); lo += windowSize {
		hi := min(lo+windowSize, len(ok))
		if hi-lo < windowSize && lo > 0 {
			break // a short tail window would be noisier than the rest
		}
		w := ok[lo:hi]
		lat := make([]int64, len(w))
		for i, s := range w {
			lat[i] = s.result - s.sent
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		rate = append(rate, float64(len(w))/(float64(w[len(w)-1].result-start)/1e9))
		p50 = append(p50, float64(quantile(lat, 0.50))/1e6)
		p99 = append(p99, float64(quantile(lat, 0.99))/1e6)
		start = w[len(w)-1].result
	}
	return rate, p50, p99
}

func percentileMs(samples []sample, q float64, span func(sample) int64) float64 {
	var v []int64
	for _, s := range samples {
		if s.ok {
			v = append(v, span(s))
		}
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return float64(quantile(v, q)) / 1e6
}

func completed(samples []sample) (n int64) {
	for _, s := range samples {
		if s.ok {
			n++
		}
	}
	return n
}

func runCCLServe(o options, rep *report) error {
	mixes, err := buildMix(o.seed)
	if err != nil {
		return err
	}
	type server struct {
		ts     *httptest.Server
		client *http.Client
	}
	var started []server
	srv, setup, err := buildTimed(serverStarts, func() (server, error) {
		ts, client, err := startServer()
		started = append(started, server{ts, client})
		return server{ts, client}, err
	})
	for _, s := range started {
		if s != srv && s.ts != nil {
			s.client.CloseIdleConnections()
			s.ts.Close()
		}
	}
	if err != nil {
		return err
	}
	defer func() {
		srv.client.CloseIdleConnections()
		srv.ts.Close()
	}()

	total := time.Duration(o.seconds * float64(time.Second))
	start := make([]int, clients)
	if !o.traced {
		t0 := nowNs()
		samples, _ := drive(rep, srv.client, srv.ts.URL, mixes, start, total, nil)
		rep.detail["requests"] = len(samples)
		rep.detail["latency_samples"] = completed(samples)
		rate, p50, p99 := windows(samples, t0)
		rep.detail["windows"] = len(rate)
		rep.set("setup_s", setup)
		rep.set("ops_per_s", median(rate))
		rep.set("req_p50_ms", midmean(p50))
		rep.set("req_p99_ms", midmean(p99))
		rep.set("sim_cycles_per_op", mixCyclesPerRequest(mixes))
		rep.set("live_heap_mb", liveHeapMiB())
		runtime.KeepAlive(mixes)
		return nil
	}

	// Traced: half the time untraced, half traced; the ratio of their
	// throughputs is the tracing overhead.
	plain, plainSecs := drive(rep, srv.client, srv.ts.URL, mixes, start, total/2, nil)
	m0 := readMem()
	samples, elapsed := drive(rep, srv.client, srv.ts.URL, mixes, start, total/2, rep.tr)
	m1 := readMem()
	var rejected, retried, records int64
	for _, s := range samples {
		if s.rejected {
			rejected++
		}
		if s.retried {
			retried++
		}
		if s.ok {
			records += int64(s.records)
		}
	}
	n := float64(len(samples))
	rep.set("serve.admit_queue_ms.p50", percentileMs(samples, 0.50, func(s sample) int64 { return s.headers - s.sent }))
	rep.set("serve.admit_queue_ms.p99", percentileMs(samples, 0.99, func(s sample) int64 { return s.headers - s.sent }))
	rep.set("serve.run_ms.p50", percentileMs(samples, 0.50, func(s sample) int64 { return s.result - s.headers }))
	rep.set("serve.stream_ms", percentileMs(samples, 0.50, func(s sample) int64 { return s.eof - s.result }))
	rep.set("serve.rejected_ratio", float64(rejected)/n)
	rep.set("serve.retried", float64(retried))
	rep.set("sim.accesses_per_s", float64(records)/elapsed)
	rep.set("runtime.alloc_bytes_per_op", float64(m1.totalAlloc-m0.totalAlloc)/n)
	rep.set("runtime.gc_cycles", float64(m1.numGC-m0.numGC))
	rep.set("trace.overhead_ratio", (float64(completed(plain))/plainSecs)/(float64(completed(samples))/elapsed)-1)
	return layerCosts(rep, mixes)
}

// mixCyclesPerRequest is the simulated cycles of the uploaded-trace
// replays, per request of the mix (job specs count as 0 cycles).
func mixCyclesPerRequest(mixes [][]*request) float64 {
	var cycles, n int64
	for _, mix := range mixes {
		for _, r := range mix {
			cycles += r.cycles
			n++
		}
	}
	return float64(cycles) / float64(n)
}

// layerCosts times, outside the server, the layers a request reaches:
// trace.Decode on each upload, a bare and an observed replay of each
// decoded trace, and bench.Run on each job spec. Each bare replay must
// reproduce the cycles and misses the served result reported.
func layerCosts(rep *report, mixes [][]*request) error {
	var decodeNs, bareNs, telNs, profNs, accesses, obsAcc, verified, perOpAcc int64
	var mixN int64
	jobMs := map[string]float64{}
	jobCount := map[string]int64{}
	seen := map[*request]bool{}
	for _, mix := range mixes {
		for _, r := range mix {
			mixN++
			perOpAcc += int64(r.records)
			if r.kind != "replay" {
				jobCount[r.kind]++
			}
			if seen[r] {
				continue
			}
			seen[r] = true
			if r.kind != "replay" {
				var ms []float64
				for i := 0; i < replayReps; i++ {
					specs, ok := bench.Lookup(r.kind)
					if !ok {
						return fmt.Errorf("experiment %s missing from the registry", r.kind)
					}
					t0 := nowNs()
					bench.Run(context.Background(), []bench.Spec{specs}, bench.Options{Parallel: 1})
					ms = append(ms, float64(nowNs()-t0)/1e6)
				}
				jobMs[r.kind] = median(ms)
				continue
			}
			t0 := nowNs()
			tr, err := trace.Decode(r.body)
			decodeNs += nowNs() - t0
			if err != nil {
				return fmt.Errorf("decoding an upload: %w", err)
			}
			h := cache.New(tr.Config)
			t0 = nowNs()
			cycles := trace.AccessTrace(h, tr.Records)
			bareNs += nowNs() - t0
			accesses += int64(len(tr.Records))
			st := h.Stats()
			if cycles != r.cycles || st.Levels[len(st.Levels)-1].Misses != r.misses {
				rep.fault(false, "replaying an upload gave %d cycles, %d misses; the server reported %d, %d",
					cycles, st.Levels[len(st.Levels)-1].Misses, r.cycles, r.misses)
			}
			verified++
			pre := tr.Records[:min(len(tr.Records), observerPrefix)]
			b := replay(cache.New(tr.Config), nil, pre)
			for _, obs := range observers {
				h := cache.New(tr.Config)
				obs.attach(h)
				ns := int64(replay(h, nil, pre) - b)
				if obs.name == "collector" {
					telNs += ns
				} else {
					profNs += ns
				}
			}
			obsAcc += int64(len(pre))
		}
	}
	var jobs, jobWeighted float64
	for k, n := range jobCount {
		jobs += float64(n)
		jobWeighted += float64(n) * jobMs[k]
	}
	rep.set("trace.decode_us", float64(decodeNs)/1e3/float64(verified))
	rep.set("cache.host_ns_per_access", ratio(bareNs, accesses))
	rep.set("cache.accesses_per_op", ratio(perOpAcc, mixN))
	rep.set("telemetry.host_ns_per_access", ratio(telNs, obsAcc))
	rep.set("profile.host_ns_per_access", ratio(profNs, obsAcc))
	rep.set("bench.run_ms", jobWeighted/jobs)
	rep.set("replay.verified_streams", float64(verified))
	return nil
}
