package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"trustvo"
	"trustvo/internal/workload"
)

// engine_worlds: in-process negotiations over seeded random policy
// worlds, closed loop, one goroutine. No transport or codec: tree search,
// XPath conditions, policy evaluation and verification only. Every
// verdict is checked against the world's AND-OR oracle.

const (
	// engineWorlds is the sum of the engineSizeClasses quotas. The set is
	// kept small so the fixture's own live heap, which every GC cycle
	// marks, does not outweigh the engine's work.
	engineWorlds = 400
	// engineMaxNodes is the tree-size guard (Party.MaxTreeNodes) the
	// negotiating parties run with. A world whose negotiation trips it is
	// replaced by the next sub-seed's: the oracle has no resource bound, so
	// such a world has no verdict to check, and the heavy tail of huge
	// trees would make the latency tail depend on a handful of worlds.
	engineMaxNodes = 256
)

// engineSizeClasses fixes the world mix: worlds are classed by the size of
// their negotiation tree (at most edge nodes), and each seed's set holds
// the same number per class, in the shares 4000 generated worlds showed.
// A seed then changes which worlds run, not how heavy the mix is.
var engineSizeClasses = []struct{ edge, quota int }{
	{3, 51}, {5, 38}, {8, 38}, {12, 34}, {20, 43},
	{30, 37}, {47, 40}, {77, 40}, {133, 40}, {engineMaxNodes, 39},
}

// engineConfig is deeper than workload.DefaultConfig: more credential
// types, alternatives, multiedge terms and wildcards.
func engineConfig(seed int64) workload.Config {
	return workload.Config{
		Seed:              seed,
		CredTypes:         14,
		MaxAlternatives:   3,
		MaxTermsPerPolicy: 3,
		ProtectProb:       0.7,
		MissingProb:       0.2,
		WildcardProb:      0.15,
	}
}

type engineWorld struct {
	w    *workload.World
	want bool // the oracle's verdict
}

type engineFixture struct {
	worlds []engineWorld
	next   int
}

func setupEngine(seed int64) (fixture, error) {
	rng := newRand(seed, 3)
	fx := &engineFixture{}
	filled := make([]int, len(engineSizeClasses))
	sub := rng.Int63()
	for len(fx.worlds) < engineWorlds {
		sub++
		w, err := workload.Generate(engineConfig(sub))
		if err != nil {
			return nil, err
		}
		// Mix the strategies: half the worlds negotiate trusting.
		if rng.Intn(2) == 0 {
			w.Requester.Strategy = trustvo.Trusting
			w.Controller.Strategy = trustvo.Trusting
		}
		for _, p := range []*trustvo.Party{w.Requester, w.Controller} {
			p.MaxTreeNodes, p.MaxRounds = engineMaxNodes, 0
		}
		ew := engineWorld{w: w, want: w.Satisfiable()}
		out, nodes, err := runWorld(w, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("world %d: %w", sub, err)
		}
		if nodes > engineMaxNodes {
			continue // tripped the guard
		}
		if out.Succeeded != ew.want {
			return nil, fmt.Errorf("world %d: engine verdict %v, oracle %v", sub, out.Succeeded, ew.want)
		}
		c := 0
		for nodes > engineSizeClasses[c].edge {
			c++
		}
		if filled[c] == engineSizeClasses[c].quota {
			continue
		}
		filled[c]++
		fx.worlds = append(fx.worlds, ew)
	}
	return fx, nil
}

// runWorld negotiates one world in-process through the facade's
// requester and controller endpoints, returning the requester's outcome
// and the larger of the two trees.
func runWorld(w *workload.World, tr *tracer, jc *joinCtx) (*trustvo.Outcome, int, error) {
	req := trustvo.NewRequester(w.Requester, w.Resource)
	ctl := trustvo.NewController(w.Controller)
	msg, err := req.Start()
	if err != nil {
		return nil, 0, err
	}
	// Messages alternate: even hops go to the controller.
	for hop := 0; msg != nil; hop++ {
		ep, verifier := ctl, w.Controller.Trust
		if hop%2 == 1 {
			ep, verifier = req, w.Requester.Trust
		}
		tr.captureMsg(jc, msg, verifier)
		in := msg
		tr.timed(jc, "negotiation.handle", func() { msg, err = ep.Handle(in) })
		if err != nil {
			return nil, 0, err
		}
	}
	if !req.Done() {
		return nil, 0, errors.New("negotiation ended without an outcome")
	}
	nodes := 0
	for _, ep := range []*trustvo.Endpoint{req, ctl} {
		if t := ep.Tree(); t != nil && t.Len() > nodes {
			nodes = t.Len()
		}
	}
	return req.Outcome(), nodes, nil
}

func (fx *engineFixture) run(ctx context.Context, o windowOpts) (*window, error) {
	tr := o.tr
	w := newWindow()
	w.chunkRate = true
	var stores []*trustvo.TrustStore
	for _, ew := range fx.worlds {
		stores = append(stores, ew.w.Requester.Trust, ew.w.Controller.Trust)
	}
	before := readVerify(stores...)
	deadline := w.start.Add(o.d)
	for time.Now().Before(deadline) {
		ew := fx.worlds[fx.next%len(fx.worlds)]
		fx.next++
		_, jc := tr.beginJoin(ctx)
		t0 := time.Now()
		out, n, err := runWorld(ew.w, tr, jc)
		end := time.Now()
		lat := end.Sub(t0)
		tr.endJoin(jc)
		w.attempted++
		if err != nil {
			w.fail("world %d: %v", fx.next, err)
			continue
		}
		w.eng.rounds += out.Rounds
		w.eng.nodes += n
		if out.Succeeded != ew.want {
			w.fail("world %d: engine verdict %v, oracle %v", fx.next, out.Succeeded, ew.want)
			continue
		}
		w.completed++
		w.add(lat, end)
	}
	w.elapsed = time.Since(w.start)
	addVerifyDelta(w, before, readVerify(stores...))
	return w, nil
}

func (fx *engineFixture) close() {}
