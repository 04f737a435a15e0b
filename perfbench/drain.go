package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"trustvo"
	"trustvo/internal/partydb"
)

// drain_restart: rolling-restart cycles against a durable TN service,
// opened as tnserve -db opens its store (fswal backend, group-commit
// durability). Each cycle parks drainSessions negotiations mid-flight,
// suspends them to the store, closes and reopens the store, resumes them
// in a fresh service, and finishes every parked negotiation on its
// original session id.
//
// Each cycle starts on a new store. Nothing on the tnserve path compacts
// the log, so on one store every restart replays all earlier cycles and
// a run's figures would depend on how many cycles it fitted.

const (
	// drainSessions is how many negotiations a cycle parks: the service's
	// default MaxSessions, so a cycle drains a full session table.
	drainSessions = 1024
	drainMembers  = 64
)

var drainDirs atomic.Int64

type drainFixture struct {
	srv     *server
	dir     string
	cycles  int // store directories made so far
	ctl     *trustvo.Party
	members []*trustvo.Party
	reg     *trustvo.MetricsRegistry
	db      *trustvo.Store
	svc     *trustvo.TNService
	rng     *rand.Rand
	res     string
}

func setupDrain(seed int64) (fixture, error) {
	dir := filepath.Join(workDir(), "run", fmt.Sprintf("drain-%d-%d", os.Getpid(), drainDirs.Add(1)))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	root, err := trustvo.NewAuthority("CertCA")
	if err != nil {
		return nil, err
	}
	resource := trustvo.MembershipResource(fig9VO, fig9Role)
	ps, err := trustvo.ParsePolicies(fig9Policy)
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		p.Resource = resource
	}
	fx := &drainFixture{
		dir: dir,
		ctl: &trustvo.Party{
			Name:     fig9Initiator,
			Profile:  trustvo.NewProfile(fig9Initiator),
			Policies: trustvo.MustPolicySet(ps...),
			Trust:    trustvo.NewTrustStore(root),
			Grant: func(resource, peer string) ([]byte, error) {
				return []byte(fmt.Sprintf("granted:%s:to:%s", resource, peer)), nil
			},
		},
		reg: trustvo.NewMetricsRegistry(),
		rng: newRand(seed, 4),
		res: resource,
	}
	memTrust := trustvo.NewTrustStore(root)
	for i := 0; i < drainMembers; i++ {
		name := fmt.Sprintf("Member%02d-%d", i, fx.rng.Intn(1000))
		p := &trustvo.Party{Name: name, Profile: trustvo.NewProfile(name), Policies: trustvo.MustPolicySet(), Trust: memTrust}
		for _, req := range []trustvo.IssueRequest{
			{Type: "WebDesignerQuality", Holder: name,
				Attributes: []trustvo.Attribute{{Name: "regulation", Value: "UNI EN ISO 9000"}}},
			{Type: "AAAMember", Holder: name},
		} {
			c, err := root.Issue(req)
			if err != nil {
				return nil, err
			}
			p.Profile.Add(c)
		}
		fx.members = append(fx.members, p)
	}
	fx.srv = newServer(http.NotFoundHandler())
	if _, err := fx.run(context.Background(), windowOpts{}); err != nil { // warm-up cycle
		fx.close()
		return nil, err
	}
	return fx, nil
}

// path is the current cycle's store path.
func (fx *drainFixture) path() string {
	return filepath.Join(fx.dir, fmt.Sprintf("cycle%d", fx.cycles), "tn.db")
}

// freshStore replaces the store with an empty one and starts a service
// on it.
func (fx *drainFixture) freshStore(tr *tracer) error {
	if fx.db != nil {
		if err := fx.db.Close(); err != nil {
			return fmt.Errorf("close store: %w", err)
		}
		if err := os.RemoveAll(filepath.Dir(fx.path())); err != nil {
			return err
		}
	}
	fx.cycles++
	if err := os.MkdirAll(filepath.Dir(fx.path()), 0o755); err != nil {
		return err
	}
	db, err := trustvo.OpenDurableStore(fx.path())
	if err != nil {
		return err
	}
	fx.db = db
	_, err = fx.startService(tr)
	return err
}

// startService brings a TN service up on fx.db the way tnserve -db does
// at start: instrument the store, write the party, sync, resume the
// sessions a previous run suspended, then serve.
func (fx *drainFixture) startService(tr *tracer) (int, error) {
	fx.db.Instrument(fx.reg)
	if err := partydb.SaveParty(fx.db, fx.ctl); err != nil {
		return 0, fmt.Errorf("save party: %w", err)
	}
	if err := fx.db.Sync(); err != nil {
		return 0, err
	}
	svc := trustvo.NewTNService(fx.ctl)
	svc.Metrics = fx.reg
	svc.Logf = func(string, ...any) {}
	svc.DB = fx.db
	n, err := svc.ResumeSessions(fx.db)
	if err != nil {
		return n, fmt.Errorf("resume sessions: %w", err)
	}
	mux := http.NewServeMux()
	svc.Register(mux)
	fx.srv.set(tr.handler(mux))
	fx.svc = svc
	return n, nil
}

// parked is one negotiation waiting across the restart.
type parked struct {
	c    *trustvo.TNClient
	id   string
	ep   *trustvo.Endpoint
	next *trustvo.Message
	t0   time.Time
	ctx  context.Context
	jc   *joinCtx
	err  error
	out  *trustvo.Outcome
	done time.Time
	// active is the time the negotiation spent in its own calls, leaving
	// out the time it sat parked and the outage.
	active time.Duration
}

// cycleStats is what one restart cycle measured.
type cycleStats struct {
	restart, suspend, reopen, resume time.Duration
	fsyncs, walBytes, reloads        int64
	suspended                        int
}

func (fx *drainFixture) counter(name string) int64 {
	return fx.reg.Counter(name).Value() //lint:allow metricname read-side helper; callers pass literals
}

// cycle parks n negotiations, restarts the service and finishes them.
func (fx *drainFixture) cycle(ctx context.Context, n int, tr *tracer, w *window) (*cycleStats, error) {
	if err := fx.freshStore(tr); err != nil {
		return nil, err
	}
	wt := fx.srv.transport(tr)
	ps := make([]*parked, n)
	for i := range ps {
		p := &parked{c: &trustvo.TNClient{BaseURL: fx.srv.url(), Party: fx.members[fx.rng.Intn(len(fx.members))], Transport: wt}}
		p.ctx, p.jc = tr.beginJoin(ctx)
		ps[i] = p
	}
	// Park: start each negotiation and run its first exchange, so the
	// service holds state for every session.
	forEach(n, func(i int) {
		p := ps[i]
		p.t0 = time.Now()
		defer func() { p.active += time.Since(p.t0) }()
		if p.id, p.err = p.c.Start(p.ctx, fx.res); p.err != nil {
			return
		}
		p.ep = trustvo.NewRequester(p.c.Party, fx.res)
		msg, err := p.ep.Start()
		if err != nil {
			p.err = err
			return
		}
		reply, err := p.c.Exchange(p.ctx, p.id, msg)
		if err != nil {
			p.err = fmt.Errorf("first exchange: %w", err)
			return
		}
		if reply == nil {
			p.err = errors.New("first exchange: no reply")
			return
		}
		tr.timed(p.jc, "negotiation.handle", func() { p.next, p.err = p.ep.Handle(reply) })
		if p.err == nil && p.next == nil {
			p.err = errors.New("negotiation finished before it could be parked")
		}
	})

	// Restart: suspend, close, reopen and recover, resume.
	st := &cycleStats{}
	fsync0, wal0, reload0 := fx.counter("store_fsync_total"), fx.counter("store_wal_appended_bytes_total"), fx.counter("tn_party_reloads_total")
	t0 := time.Now()
	suspended, err := fx.svc.SuspendSessions(fx.db)
	if err != nil {
		return nil, fmt.Errorf("suspend: %w", err)
	}
	st.suspend = time.Since(t0)
	t1 := time.Now()
	if err := fx.db.Close(); err != nil {
		return nil, fmt.Errorf("close store: %w", err)
	}
	if fx.db, err = trustvo.OpenDurableStore(fx.path()); err != nil {
		return nil, fmt.Errorf("reopen store: %w", err)
	}
	st.reopen = time.Since(t1)
	t2 := time.Now()
	resumed, err := fx.startService(tr)
	if err != nil {
		return nil, err
	}
	st.resume = time.Since(t2)
	st.suspended = suspended

	// Finish: the first parked negotiation's next reply ends the outage;
	// then every parked negotiation completes on its session id.
	for _, p := range ps {
		if p.err != nil {
			continue
		}
		var reply *trustvo.Message
		t3 := time.Now()
		reply, p.err = p.c.Exchange(p.ctx, p.id, p.next)
		p.active += time.Since(t3)
		st.restart = time.Since(t0)
		p.next = nil
		if p.err == nil && reply != nil {
			tr.timed(p.jc, "negotiation.handle", func() { p.next, p.err = p.ep.Handle(reply) })
		}
		break
	}
	forEach(n, func(i int) {
		p := ps[i]
		if p.err != nil {
			return
		}
		t4 := time.Now()
		p.out, p.err = exchangeUntilDone(p.ctx, p.c, p.id, p.ep, p.next, tr, p.jc)
		p.done = time.Now()
		p.active += p.done.Sub(t4)
		tr.endJoin(p.jc)
	})
	st.fsyncs = fx.counter("store_fsync_total") - fsync0
	st.walBytes = fx.counter("store_wal_appended_bytes_total") - wal0
	st.reloads = fx.counter("tn_party_reloads_total") - reload0

	for _, p := range ps {
		w.eng.add(p.out, p.ep)
	}
	if suspended != n || resumed != n {
		w.fail("cycle suspended %d and resumed %d of %d parked sessions", suspended, resumed, n)
	}
	for i, p := range ps {
		w.attempted++
		switch {
		case p.err != nil:
			w.fail("session %d: %v", i, p.err)
		case p.out == nil || !p.out.Succeeded:
			w.fail("session %d: not granted after the restart", i)
		default:
			w.completed++
			w.add(p.active, p.done)
		}
	}
	return st, nil
}

// run cycles for o.d; a zero d runs one small warm-up cycle.
func (fx *drainFixture) run(ctx context.Context, o windowOpts) (*window, error) {
	tr := o.tr
	w := newWindow()
	// One tail chunk per cycle.
	w.chunk = drainSessions
	if o.d == 0 {
		if _, err := fx.cycle(ctx, 64, nil, w); err != nil {
			return nil, err
		}
		if w.failed > 0 {
			return nil, fmt.Errorf("warm-up: %s", w.errs[0])
		}
		return w, nil
	}
	if tr != nil {
		tr.reqVerifier, tr.respVerifier = fx.ctl.Trust, fx.members[0].Trust
	}
	before := readVerify(fx.ctl.Trust)
	var restarts, suspends, reopens, resumes []float64
	var fsyncs, walBytes, reloads int64
	sessions, starts := 0, 0
	for time.Since(w.start) < o.d {
		st, err := fx.cycle(ctx, drainSessions, tr, w)
		if err != nil {
			return nil, err
		}
		restarts = append(restarts, ms(st.restart))
		suspends = append(suspends, ms(st.suspend))
		reopens = append(reopens, ms(st.reopen))
		resumes = append(resumes, ms(st.resume))
		fsyncs += st.fsyncs
		walBytes += st.walBytes
		reloads += st.reloads
		sessions += st.suspended
		starts++
	}
	w.elapsed = time.Since(w.start)
	w.extra["restart_p50_ms"] = medianFloat(restarts)
	w.extra["store.suspend_ms"] = medianFloat(suspends)
	w.extra["store.reopen_ms"] = medianFloat(reopens)
	w.extra["store.resume_ms"] = medianFloat(resumes)
	w.extra["store.fsyncs_per_cycle"] = float64(fsyncs) / float64(starts)
	if sessions > 0 {
		w.extra["store.wal_bytes_per_session"] = float64(walBytes) / float64(sessions)
	}
	w.extra["store.party_reloads"] = float64(reloads) / float64(starts)
	addVerifyDelta(w, before, readVerify(fx.ctl.Trust))
	logf("drain: %d cycles; restart ms %.0f; suspend %.0f; reopen %.0f; resume %.0f", starts, restarts, suspends, reopens, resumes)
	return w, nil
}

func (fx *drainFixture) close() {
	if fx.srv != nil {
		fx.srv.close()
	}
	if fx.db != nil {
		fx.db.Close()
	}
	os.RemoveAll(fx.dir)
}
