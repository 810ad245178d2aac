package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"evax/internal/runner"
	"evax/internal/serve"
)

// The churn workload: short sessions on churnSlots connections at a time,
// a fixed share of them cut mid-stream and resumed, and a canary-gated hot
// swap between the two kept bundles every churnSwapEvery. Session starts are
// paced, not closed-loop: a slot starts a session every churnPeriod, or as
// soon as its previous session ends if that is later (README, "churn
// sessions", gives the basis of each figure).
const (
	churnSlots     = 2               // connections open at a time
	churnBurst     = 16              // windows per session: half of evaxd's default batch
	churnCut       = 4               // every churnCut-th session is cut and resumed
	churnSwapEvery = 2 * time.Second // evaxd's default -watch-every
	churnPer       = 128             // sessions per slot between two swaps
	churnPeriod    = churnSwapEvery / churnPer
)

// churnSession is one session's input, built in set-up: its window timeline
// and the oracle's verdicts under the bundle active while it runs.
type churnSession struct {
	id   int
	s    stream
	want []serve.Verdict
}

// churnState is one set-up: both models and the server.
type churnState struct {
	p        *pool
	models   [2]*model
	warm     [churnSlots]churnSession
	sessions []churnSession // round r holds sessions r*churnSlots*churnPer onwards
	srv      server
	genCPU   float64
}

// churnRounds is the number of swap intervals in a run: at least one.
func churnRounds(e env) int {
	return max(1, int(e.seconds/churnSwapEvery.Seconds()))
}

// newChurnSession builds session g's stream and its oracle under model m.
func newChurnSession(p *pool, g int, seed int64, m *model) churnSession {
	s := buildStream(p, "churn", g, seed, churnBurst)
	return churnSession{id: g, s: s, want: expect(m, p, s, secureWindow, nil)}
}

// churnSetup loads the inputs, builds every session of the run with its
// oracle, starts the server with the canary corpus (evaxd unless inProc) and
// runs one warm-up session per slot. On error it leaves nothing running.
func churnSetup(e env, inProc bool) (st *churnState, err error) {
	c0 := selfCPU()
	p, err := loadPool(e.data)
	if err != nil {
		return nil, err
	}
	st = &churnState{p: p}
	for i, f := range []string{bundleAFile, bundleBFile} {
		abs, err := filepath.Abs(filepath.Join(e.data, f))
		if err != nil {
			return nil, err
		}
		if st.models[i], err = loadModel(abs, p); err != nil {
			return nil, err
		}
	}
	for s := range st.warm {
		st.warm[s] = newChurnSession(p, -1-s, e.seed, st.models[0])
	}
	st.sessions = make([]churnSession, churnRounds(e)*churnSlots*churnPer)
	for g := range st.sessions {
		st.sessions[g] = newChurnSession(p, g, e.seed, st.models[g/(churnSlots*churnPer)%2])
	}
	if st.srv, err = startServer(e, inProc, true); err != nil {
		return nil, err
	}
	for s := range st.warm {
		out, err := runSession(st, &st.warm[s], false, nil)
		if err == nil && (out.mismatched > 0 || out.failed > 0) {
			err = fmt.Errorf("warm-up session %d failed its check", s)
		}
		if err != nil {
			st.srv.abort()
			return nil, err
		}
	}
	st.genCPU = selfCPU() - c0
	return st, nil
}

// sessOut is what one or more sessions measured.
type sessOut struct {
	sessions, cut, failed, mismatched, verdicts, dupDeliveries int64
	latMs, sessMs, handshakeUs, closeUs                        []float64
}

func (o *sessOut) add(x sessOut) {
	o.sessions += x.sessions
	o.cut += x.cut
	o.failed += x.failed
	o.mismatched += x.mismatched
	o.verdicts += x.verdicts
	o.dupDeliveries += x.dupDeliveries
	o.latMs = append(o.latMs, x.latMs...)
	o.sessMs = append(o.sessMs, x.sessMs...)
	o.handshakeUs = append(o.handshakeUs, x.handshakeUs...)
	o.closeUs = append(o.closeUs, x.closeUs...)
}

// sessionTimeout bounds every read of a session, so a verdict that never
// comes fails the run instead of hanging it.
const sessionTimeout = 10 * time.Second

// runSession runs one session: dial with the resume handshake, stream a burst,
// wait for its verdicts, bye, read the stats frame. A cut session drops its
// connection after half the burst and half its answers, resumes on a new
// connection, and replays the unanswered tail through the server's dedup
// ring. Each verdict is timed from its window's first send.
func runSession(st *churnState, cs *churnSession, cut bool, tr *tracer) (out sessOut, err error) {
	out.sessions = 1
	p, s, want, g := st.p, cs.s, cs.want, cs.id
	got := make([]int, churnBurst)
	sentAt := make([]time.Duration, churnBurst)
	answered := 0
	id := uint64(g)
	root := tr.begin("session", id, -1)
	t0 := time.Now()

	var cl *serve.Client
	defer func() {
		if cl != nil {
			//evaxlint:ignore droppederr teardown; the server has closed its side or the session already failed
			cl.Close()
		}
		if err != nil {
			err = fmt.Errorf("session %d: %w", g, err)
		}
	}()
	dial := func(session uint64) (serve.Ack, error) {
		sp := tr.begin("serve.DialResume", id, root)
		t := time.Now()
		c, ack, err := serve.DialResume(st.srv.addr, p.rawDim, session)
		tr.end(sp, 1)
		if err != nil {
			return ack, err
		}
		out.handshakeUs = append(out.handshakeUs, float64(time.Since(t).Nanoseconds())/1e3)
		cl = c
		return ack, cl.SetReadDeadline(time.Now().Add(sessionTimeout))
	}
	send := func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if sentAt[i] == 0 {
				sentAt[i] = time.Since(t0)
			}
			if err := sendWindow(cl, p, s, i); err != nil {
				return err
			}
		}
		return nil
	}
	// verdict checks one verdict against the oracle; a re-delivery of an
	// answered window must repeat the same verdict and is not timed again.
	verdict := func(v serve.Verdict) error {
		if v.Seq >= churnBurst {
			return fmt.Errorf("verdict for unexpected seq %d", v.Seq)
		}
		if !same(v, want[v.Seq]) {
			out.mismatched++
		}
		if got[v.Seq]++; got[v.Seq] > 1 {
			out.dupDeliveries++
			return nil
		}
		answered++
		out.latMs = append(out.latMs, float64(time.Since(t0)-sentAt[v.Seq])/1e6)
		return nil
	}
	// await reads until n windows in all have been answered.
	await := func(n int) error {
		for answered < n {
			fr, err := cl.Recv()
			if err != nil {
				return err
			}
			switch fr.Type {
			case serve.FrameVerdict:
				v, err := serve.DecodeVerdict(fr.Payload)
				if err != nil {
					return err
				}
				if err := verdict(v); err != nil {
					return err
				}
			case serve.FrameReject:
				r, err := serve.DecodeReject(fr.Payload)
				if err != nil {
					return err
				}
				return fmt.Errorf("window %d rejected: %s", r.Seq, r.Msg)
			case serve.FramePong:
			default:
				return fmt.Errorf("unexpected frame type 0x%02x", fr.Type)
			}
		}
		return nil
	}

	ack, err := dial(0)
	if err != nil {
		return out, err
	}
	if cut {
		out.cut = 1
		half := churnBurst / 2
		if err := send(0, half); err != nil {
			return out, err
		}
		if err := await(half / 2); err != nil {
			return out, fmt.Errorf("before the cut: %w", err)
		}
		//evaxlint:ignore droppederr the cut: the connection is dropped mid-stream on purpose
		cl.Close()
		cl = nil
		ack2, err := dial(ack.Session)
		if err != nil {
			return out, fmt.Errorf("resume: %w", err)
		}
		if ack2.Session != ack.Session {
			return out, fmt.Errorf("resumed as session %d", ack2.Session)
		}
		if err := send(half/2, churnBurst); err != nil { // the unanswered tail, then the rest
			return out, err
		}
	} else if err := send(0, churnBurst); err != nil {
		return out, err
	}
	if err := await(churnBurst); err != nil {
		return out, err
	}
	t2 := time.Now()
	closing := tr.begin("close", id, root)
	err = cl.Bye()
	var stats serve.ConnStats
	var late []serve.Verdict
	var rejects []serve.Reject
	if err == nil {
		stats, late, rejects, err = cl.DrainStats()
	}
	tr.end(closing, 1)
	if err != nil {
		return out, err
	}
	now := time.Now()
	out.closeUs = append(out.closeUs, float64(now.Sub(t2).Nanoseconds())/1e3)
	out.sessMs = append(out.sessMs, float64(now.Sub(t0).Nanoseconds())/1e6)
	tr.end(root, churnBurst)
	for _, v := range late {
		if err := verdict(v); err != nil {
			return out, err
		}
	}
	if len(rejects) > 0 {
		out.failed = 1
	}
	// Exactly-once on the server side: the session scored each window once.
	if stats.Session != ack.Session || stats.SessionScored != churnBurst {
		return out, fmt.Errorf("server scored %d of %d windows (session %d, want %d)",
			stats.SessionScored, churnBurst, stats.Session, ack.Session)
	}
	out.verdicts = churnBurst
	return out, nil
}

// churnRound runs one round: both slots' sessions in parallel, on their
// schedule from base.
func churnRound(st *churnState, r int, base time.Time, tr *tracer) (sessOut, error) {
	outs, _, err := runner.MapErrCtx(context.Background(), runner.Options{Jobs: churnSlots}, churnSlots,
		func(ctx context.Context, slot int) (sessOut, error) {
			var o sessOut
			for j := 0; j < churnPer; j++ {
				if err := ctx.Err(); err != nil {
					return o, err
				}
				due := time.Duration(r*churnPer+j)*churnPeriod + time.Duration(slot)*churnPeriod/churnSlots
				if d := due - time.Since(base); d > 0 {
					time.Sleep(d)
				}
				g := (r*churnSlots+slot)*churnPer + j
				x, err := runSession(st, &st.sessions[g], g%churnCut == churnCut-1, tr)
				if err != nil {
					return o, err
				}
				o.add(x)
			}
			return o, nil
		})
	var o sessOut
	for _, x := range outs {
		o.add(x)
	}
	return o, err
}

// swap promotes model m over an operator connection and checks the
// generation epoch moved up by one onto m's bundle.
func swap(st *churnState, m *model, epoch uint64, tr *tracer) (ms float64, err error) {
	sp := tr.begin("admin.swap", epoch, -1)
	t0 := time.Now()
	cl, err := serve.Dial(st.srv.addr, st.p.rawDim)
	if err != nil {
		return 0, err
	}
	res, err := cl.Swap(m.path)
	ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(sp, 1)
	//evaxlint:ignore droppederr the admin round trip already completed
	cl.Close()
	if err != nil {
		return ms, err
	}
	if !res.Ok {
		return ms, fmt.Errorf("swap to %s refused: %s", m.gen.HashHex(), res.Error)
	}
	if res.Status.Epoch != epoch+1 || res.Status.ActiveHash != m.gen.HashHex() {
		return ms, fmt.Errorf("swap to %s left epoch %d active %s (want epoch %d)",
			m.gen.HashHex(), res.Status.Epoch, res.Status.ActiveHash, epoch+1)
	}
	return ms, nil
}

// churnOut is what one timed window measured.
type churnOut struct {
	sessOut
	rounds                         int
	swapMs                         []float64
	serverCPU, genCPU, wall, steal float64
	rssMB                          float64
	snap                           serve.Snapshot
}

// churnWindow runs the run's rounds on the sessions' schedule, each followed
// by a swap, drains the server, and checks its session accounting.
func churnWindow(st *churnState, e env, tr *tracer) (churnOut, error) {
	var out churnOut
	d0, err := st.srv.cpu()
	if err != nil {
		return out, err
	}
	g0, steal0 := selfCPU(), stealSeconds()
	base := time.Now()
	epoch := uint64(1)
	for r := 0; r < churnRounds(e); r++ {
		o, err := churnRound(st, r, base, tr)
		out.add(o)
		if err != nil {
			return out, err
		}
		ms, err := swap(st, st.models[(r+1)%2], epoch, tr)
		if err != nil {
			return out, err
		}
		epoch++
		out.swapMs = append(out.swapMs, ms)
		out.rounds++
	}
	out.wall = time.Since(base).Seconds()
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
	sort.Float64s(out.latMs)
	sort.Float64s(out.sessMs)
	sort.Float64s(out.swapMs)
	if out.snap, err = st.srv.stop(); err != nil {
		return out, err
	}
	// Server side of exactly-once, warm-up sessions included: one session
	// per session run, one resume per cut, each window scored once.
	sessions := uint64(out.sessions) + churnSlots
	if out.snap.Sessions != sessions || out.snap.Resumed != uint64(out.cut) || out.snap.Scored != sessions*churnBurst {
		return out, fmt.Errorf("server counted %d sessions, %d resumes, %d windows scored; want %d, %d, %d",
			out.snap.Sessions, out.snap.Resumed, out.snap.Scored, sessions, out.cut, sessions*churnBurst)
	}
	return out, nil
}

func runChurn(e env) (result, error) {
	probe := func() (float64, error) {
		st, err := churnSetup(e, false)
		if err != nil {
			return 0, err
		}
		dcpu, err := st.srv.d.kill()
		return st.genCPU + dcpu, err
	}
	setups, err := probeSetups(nil, setupProbes, probe)
	if err != nil {
		return result{}, err
	}
	st, err := churnSetup(e, false)
	if err != nil {
		return result{}, err
	}
	out, err := churnWindow(st, e, nil)
	if err != nil {
		st.srv.abort()
		return result{}, err
	}
	if setups, err = probeSetups(setups, setupProbes, probe); err != nil {
		return result{}, err
	}
	return churnResult(out, median(setups)), nil
}

// churnResult turns a churn window into the end-to-end metrics. Operations
// are sessions and swaps; a session whose bye drew a reject counts as
// failed (a reject before the bye, or a window never answered, fails the
// run).
func churnResult(out churnOut, setup float64) result {
	res := result{
		Correct:   out.mismatched == 0,
		Attempted: out.sessions + int64(out.rounds),
		Failed:    out.failed,
		Metrics: map[string]metric{
			"setup_s":             {setup, "s"},
			"mem_mb":              {out.rssMB, "MB"},
			"verdicts_per_core_s": {float64(out.verdicts) / out.serverCPU, "1/s"},
			"p50_ms":              {quantile(out.latMs, 0.5), "ms"},
			"round_core_s":        {out.serverCPU / float64(out.rounds), "s"},
		},
	}
	report("churn", map[string]float64{
		"sessions":              float64(out.sessions),
		"sessions_per_core_s":   float64(out.sessions) / out.serverCPU,
		"cut_sessions":          float64(out.cut),
		"rounds":                float64(out.rounds),
		"swap_p50_ms":           quantile(out.swapMs, 0.5),
		"swap_max_ms":           out.swapMs[len(out.swapMs)-1],
		"verdict_p99_ms":        quantile(out.latMs, 0.99),
		"session_p50_ms":        quantile(out.sessMs, 0.5),
		"session_p99_ms":        quantile(out.sessMs, 0.99),
		"mismatched":            float64(out.mismatched),
		"dup_deliveries":        float64(out.dupDeliveries),
		"server_sessions":       float64(out.snap.Sessions),
		"server_resumed":        float64(out.snap.Resumed),
		"server_frames_deduped": float64(out.snap.Dupes),
		"server_resent":         float64(out.snap.Resent),
		"rejected":              float64(out.snap.Rejected),
		"shed":                  float64(out.snap.Shed),
		"server_core_s":         out.serverCPU,
		"generator_core_s":      out.genCPU,
		"steal_s":               out.steal,
		"wall_s":                out.wall,
	})
	return res
}
