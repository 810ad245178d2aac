package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"evax/internal/dataset"
	"evax/internal/engine"
	"evax/internal/runner"
	"evax/internal/serve"
)

// The paced workload: pacedConns sessions stream window timelines to evaxd
// at a fixed aggregate rate in an open loop.
const (
	pacedRate    = 5_000.0 // default aggregate offered windows per second
	pacedConns   = 2       // one generator process, nproc connections
	warmWindows  = 200     // per connection, sent and answered before timing
	setupProbes  = 6       // set-ups measured before the timed window, and again after it
	secureWindow = 1_000_000
)

// server is the scoring side a generator talks to: a separate evaxd process
// (untraced runs) or an in-process serve.Server (traced runs).
type server struct {
	addr string
	d    *daemon
	srv  *serve.Server
}

// cpu returns the CPU seconds the serving process has used so far.
func (s server) cpu() (float64, error) {
	if s.d != nil {
		return procCPU(s.d.pid())
	}
	return selfCPU(), nil
}

func (s server) peakRSSMB() (float64, error) {
	if s.d != nil {
		return peakRSSMB(s.d.pid())
	}
	return peakRSSMB(0)
}

// abort stops the server after a failure; the failure is what gets
// reported, so errors from stopping are dropped.
func (s server) abort() {
	if s.d != nil {
		//evaxlint:ignore droppederr the failure that led here is the one to report
		s.d.kill()
		return
	}
	//evaxlint:ignore droppederr the failure that led here is the one to report
	s.srv.Drain()
}

// stop drains the server and returns its final snapshot.
func (s server) stop() (serve.Snapshot, error) {
	if s.d != nil {
		return s.d.stop()
	}
	return s.srv.Drain()
}

// startServer starts evaxd with the kept bundle A (and the canary corpus if
// canary), or hosts the same server in-process when inProc.
func startServer(e env, inProc, canary bool) (server, error) {
	bundle, err := filepath.Abs(filepath.Join(e.data, bundleAFile))
	if err != nil {
		return server{}, err
	}
	corpus := filepath.Join(e.data, windowsFile)
	if !inProc {
		args := []string{"-bundle", bundle, "-addr", "127.0.0.1:0"}
		if canary {
			args = append(args, "-canary", corpus)
		}
		d, err := startDaemon(e.evaxd, args...)
		if err != nil {
			return server{}, err
		}
		return server{addr: d.addr, d: d}, nil
	}
	gen, err := engine.Load(bundle, serve.BackendFloat)
	if err != nil {
		return server{}, err
	}
	mcfg := engine.ManagerConfig{Backend: serve.BackendFloat}
	if canary {
		if mcfg.Corpus, err = dataset.ReadCorpusFile(corpus); err != nil {
			return server{}, err
		}
	}
	mgr, err := engine.NewManager(gen, mcfg)
	if err != nil {
		return server{}, err
	}
	srv, err := serve.NewFromManager(mgr, serve.DefaultConfig())
	if err != nil {
		return server{}, err
	}
	if err := srv.Start(); err != nil {
		return server{}, err
	}
	return server{addr: srv.Addr(), srv: srv}, nil
}

// pacedState is one set-up: inputs, the server, and warmed-up sessions.
type pacedState struct {
	p       *pool
	m       *model
	streams [pacedConns]stream
	want    [pacedConns][]serve.Verdict
	srv     server
	cls     [pacedConns]*serve.Client
	genCPU  float64 // generator CPU spent on this set-up
	rate    float64
}

func (st *pacedState) close() {
	for _, cl := range st.cls {
		if cl != nil {
			//evaxlint:ignore droppederr teardown of a finished or abandoned session
			cl.Close()
		}
	}
}

// pacedSetup generates the inputs from the seed, starts the server (evaxd
// unless inProc), opens the sessions and warms them up. On error it leaves
// nothing running.
func pacedSetup(e env, n int, inProc bool) (st *pacedState, err error) {
	c0 := selfCPU()
	p, err := loadPool(e.data)
	if err != nil {
		return nil, err
	}
	m, err := loadModel(filepath.Join(e.data, bundleAFile), p)
	if err != nil {
		return nil, err
	}
	st = &pacedState{p: p, m: m, rate: e.rate}
	for c := range st.streams {
		st.streams[c] = buildStream(p, "paced", c, e.seed, warmWindows+n)
		st.want[c] = expect(m, p, st.streams[c], secureWindow, nil)
	}
	if st.srv, err = startServer(e, inProc, false); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			st.close()
			st.srv.abort()
			st = nil
		}
	}()
	for c := range st.cls {
		cl, _, err := serve.DialResume(st.srv.addr, p.rawDim, 0)
		if err != nil {
			return st, err
		}
		st.cls[c] = cl
		for i := 0; i < warmWindows; i++ {
			if err := sendWindow(cl, p, st.streams[c], i); err != nil {
				return st, err
			}
		}
		seen := make([]bool, warmWindows)
		for got := 0; got < warmWindows; got++ {
			fr, err := cl.Recv()
			if err == nil && fr.Type != serve.FrameVerdict {
				err = fmt.Errorf("warm-up: unexpected frame type 0x%02x", fr.Type)
			}
			var v serve.Verdict
			if err == nil {
				v, err = serve.DecodeVerdict(fr.Payload)
			}
			if err != nil {
				return st, err
			}
			if v.Seq >= warmWindows || seen[v.Seq] || !same(v, st.want[c][v.Seq]) {
				return st, fmt.Errorf("warm-up: verdict for seq %d does not match the oracle", v.Seq)
			}
			seen[v.Seq] = true
		}
	}
	st.genCPU = selfCPU() - c0
	return st, nil
}

func sendWindow(cl *serve.Client, p *pool, st stream, i int) error {
	s := &p.samples[st.rows[i]]
	return cl.Send(serve.SampleHeader{Seq: uint64(i), InstrStart: st.instrStart[i]}, s.Instructions, s.Cycles, s.Raw)
}

// same reports whether a verdict is bit-equal to the oracle's.
func same(got, want serve.Verdict) bool {
	return got.Seq == want.Seq && got.Flags == want.Flags &&
		math.Float64bits(got.Score) == math.Float64bits(want.Score)
}

// How a timed window was answered.
const (
	unanswered uint8 = iota
	answered
	rejected
)

// pacedOut is what one timed window measured.
type pacedOut struct {
	verdicts, rejected, mismatched int64
	shed                           int64     // windows whose verdict the server shed
	lat, late                      []float64 // ms: scheduled send to verdict; send lateness
	serverCPU, genCPU, wall, steal float64
	rssMB                          float64
	snap                           serve.Snapshot
}

// pacedWindow streams every connection's timed windows on schedule and
// collects the verdicts, then drains the server.
func pacedWindow(st *pacedState, n int, tr *tracer) (pacedOut, error) {
	var out pacedOut
	interval := time.Duration(float64(time.Second) * pacedConns / st.rate)
	lat := [pacedConns][]float64{}
	late := [pacedConns][]float64{}
	// Per connection and timed window: how it was answered, and the verdict.
	answer := [pacedConns][]uint8{}
	got := [pacedConns][]serve.Verdict{}
	for c := range lat {
		lat[c] = make([]float64, 0, n)
		late[c] = make([]float64, n)
		answer[c] = make([]uint8, n)
		got[c] = make([]serve.Verdict, n)
	}
	d0, err := st.srv.cpu()
	if err != nil {
		return out, err
	}
	g0, steal0 := selfCPU(), stealSeconds()
	base := time.Now()
	// due is window i's scheduled send time on connection c, as an offset
	// from base; the connections are staggered by half an interval.
	due := func(c, i int) time.Duration {
		return time.Duration(i)*interval + time.Duration(c)*interval/pacedConns
	}
	_, _, err = runner.MapErrCtx(context.Background(), runner.Options{Jobs: 2 * pacedConns}, 2*pacedConns,
		func(ctx context.Context, j int) (struct{}, error) {
			c := j / 2
			cl, s := st.cls[c], st.streams[c]
			if j%2 == 0 {
				for i := 0; i < n; i++ {
					if err := ctx.Err(); err != nil {
						return struct{}{}, err
					}
					if d := due(c, i) - time.Since(base); d > 0 {
						time.Sleep(d)
					}
					late[c][i] = float64(time.Since(base)-due(c, i)) / 1e6
					span := tr.begin("client.send", uint64(c)<<32|uint64(warmWindows+i), -1)
					if err := sendWindow(cl, st.p, s, warmWindows+i); err != nil {
						return struct{}{}, fmt.Errorf("conn %d send %d: %w", c, i, err)
					}
					tr.end(span, 1)
				}
				return struct{}{}, cl.Bye()
			}
			for {
				fr, err := cl.Recv()
				if err != nil {
					return struct{}{}, fmt.Errorf("conn %d: %w", c, err)
				}
				now := time.Since(base)
				switch fr.Type {
				case serve.FrameVerdict:
					v, err := serve.DecodeVerdict(fr.Payload)
					if err != nil {
						return struct{}{}, err
					}
					i := int(v.Seq) - warmWindows
					if i < 0 || i >= n || answer[c][i] != unanswered {
						return struct{}{}, fmt.Errorf("conn %d: verdict for unexpected seq %d", c, v.Seq)
					}
					answer[c][i], got[c][i] = answered, v
					lat[c] = append(lat[c], float64(now-due(c, i))/1e6)
					tr.mark("client.verdict", uint64(c)<<32|v.Seq)
				case serve.FrameReject:
					r, err := serve.DecodeReject(fr.Payload)
					if err != nil {
						return struct{}{}, err
					}
					i := int(r.Seq) - warmWindows
					if i < 0 || i >= n || answer[c][i] != unanswered {
						return struct{}{}, fmt.Errorf("conn %d: reject for unexpected seq %d", c, r.Seq)
					}
					answer[c][i] = rejected
				case serve.FrameStats:
					return struct{}{}, nil
				case serve.FrameDrain, serve.FramePong:
				default:
					return struct{}{}, fmt.Errorf("conn %d: unexpected frame type 0x%02x", c, fr.Type)
				}
			}
		})
	out.wall = time.Since(base).Seconds()
	if err != nil {
		return out, err
	}
	d1, err := st.srv.cpu()
	if err != nil {
		return out, err
	}
	out.serverCPU = d1 - d0
	out.genCPU = selfCPU() - g0
	out.steal = stealSeconds() - steal0
	if out.rssMB, err = st.srv.peakRSSMB(); err != nil {
		return out, err
	}
	for c := range lat {
		// A rejected window was never scored, so it moves no secure window:
		// the oracle is recomputed without it. A window neither answered
		// nor rejected was shed from the session's full write queue;
		// pacedResult checks the total against the server's count.
		want := st.want[c]
		skip := make([]bool, warmWindows+n)
		rejects := 0
		for i, a := range answer[c] {
			switch a {
			case answered:
				out.verdicts++
			case rejected:
				skip[warmWindows+i] = true
				rejects++
			default:
				out.shed++
			}
		}
		out.rejected += int64(rejects)
		if rejects > 0 {
			want = expect(st.m, st.p, st.streams[c], secureWindow, skip)
		}
		for i, a := range answer[c] {
			if a == answered && !same(got[c][i], want[warmWindows+i]) {
				out.mismatched++
			}
		}
		out.lat = append(out.lat, lat[c]...)
		out.late = append(out.late, late[c]...)
	}
	sort.Float64s(out.lat)
	sort.Float64s(out.late)
	out.snap, err = st.srv.stop()
	return out, err
}

// pacedLength is the number of timed windows per connection in a run.
func pacedLength(e env) int { return int(e.rate / pacedConns * e.seconds) }

func runPaced(e env) (result, error) {
	n := pacedLength(e)
	probe := func() (float64, error) {
		st, err := pacedSetup(e, n, false)
		if err != nil {
			return 0, err
		}
		dcpu, err := st.srv.d.kill()
		st.close()
		return st.genCPU + dcpu, err
	}
	setups, err := probeSetups(nil, setupProbes, probe)
	if err != nil {
		return result{}, err
	}
	st, err := pacedSetup(e, n, false)
	if err != nil {
		return result{}, err
	}
	defer st.close()
	out, err := pacedWindow(st, n, nil)
	if err != nil {
		st.srv.abort()
		return result{}, err
	}
	if setups, err = probeSetups(setups, setupProbes, probe); err != nil {
		return result{}, err
	}
	return pacedResult(st, out, median(setups))
}

// probeSetups appends the CPU seconds of n set-ups to setups. Each workload
// probes before its timed work and again later in the run, so that setup_s,
// the median of all of them, spans the run's changes in the host's CPU
// speed.
func probeSetups(setups []float64, n int, probe func() (float64, error)) ([]float64, error) {
	for k := 0; k < n; k++ {
		cpu, err := probe()
		if err != nil {
			return setups, err
		}
		setups = append(setups, cpu)
	}
	return setups, nil
}

// pacedResult checks a paced window and turns it into the end-to-end
// metrics.
func pacedResult(st *pacedState, out pacedOut, setup float64) (result, error) {
	sent := int64(pacedConns * (warmWindows + len(out.late)/pacedConns))
	if out.snap.Scored+out.snap.Rejected != uint64(sent) {
		return result{}, fmt.Errorf("server scored %d and rejected %d of %d windows", out.snap.Scored, out.snap.Rejected, sent)
	}
	if uint64(out.shed) != out.snap.Shed {
		return result{}, fmt.Errorf("%d windows went unanswered, the server shed %d verdicts", out.shed, out.snap.Shed)
	}
	res := result{
		Correct:   out.mismatched == 0,
		Attempted: sent,
		Failed:    out.rejected + out.shed,
		Metrics: map[string]metric{
			"setup_s":             {setup, "s"},
			"mem_mb":              {out.rssMB, "MB"},
			"verdicts_per_core_s": {float64(out.verdicts) / out.serverCPU, "1/s"},
			"p50_ms":              {quantile(out.lat, 0.5), "ms"},
			"round_core_s":        {out.serverCPU / (float64(out.verdicts) / 1e4), "s"},
		},
	}
	report("paced", map[string]float64{
		"offered_per_s":    st.rate,
		"achieved_per_s":   float64(out.verdicts) / out.wall,
		"p99_ms":           quantile(out.lat, 0.99),
		"late_p50_ms":      quantile(out.late, 0.5),
		"late_max_ms":      out.late[len(out.late)-1],
		"steal_s":          out.steal,
		"sent":             float64(sent),
		"accepted":         float64(out.snap.Accepted),
		"rejected":         float64(out.snap.Rejected),
		"shed":             float64(out.shed),
		"mismatched":       float64(out.mismatched),
		"server_core_s":    out.serverCPU,
		"generator_core_s": out.genCPU,
		"wall_s":           out.wall,
		"attack_share":     st.streams[0].attackShare(st.p),
	})
	return res, nil
}
