package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"trustvo"
)

// maxConns is the load generator's connection budget to a service: the
// benchmark host has two CPUs and drives at most two joins at once.
const maxConns = 2

// server is a service under test on an HTTP loopback. Its handler is
// swappable so a traced window can wrap the mux, and so a restarted
// service can take over the listener.
type server struct {
	srv *httptest.Server
	h   atomic.Pointer[http.Handler]
	// conns is the client-side connection pool, kept across windows.
	conns *http.Transport
}

func newServer(h http.Handler) *server {
	s := &server{}
	s.set(h)
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*s.h.Load()).ServeHTTP(w, r)
	}))
	s.conns = &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     time.Minute,
	}
	return s
}

func (s *server) set(h http.Handler) { s.h.Store(&h) }

func (s *server) url() string { return s.srv.URL }

// transport returns a wsrpc transport for one window: the shared
// connection pool, wrapped by the tracer's RoundTripper when traced.
func (s *server) transport(tr *tracer) *trustvo.Transport {
	return &trustvo.Transport{HTTP: &http.Client{Transport: tr.roundTripper(s.conns)}}
}

func (s *server) close() {
	s.conns.CloseIdleConnections()
	s.srv.Close()
}

// negotiate runs one requester negotiation for resource against a TN
// service through TNClient.Start and TNClient.Exchange. The benchmark
// drives the requester endpoint itself, as TNClient.Negotiate does, so
// that its Handle calls and negotiation tree are observable.
func negotiate(ctx context.Context, c *trustvo.TNClient, resource string, tr *tracer, jc *joinCtx) (*trustvo.Outcome, *trustvo.Endpoint, error) {
	id, err := c.Start(ctx, resource)
	if err != nil {
		return nil, nil, err
	}
	ep := trustvo.NewRequester(c.Party, resource)
	msg, err := ep.Start()
	if err != nil {
		return nil, nil, err
	}
	out, err := exchangeUntilDone(ctx, c, id, ep, msg, tr, jc)
	return out, ep, err
}

// exchangeUntilDone sends msg and feeds each reply to ep until the
// negotiation ends.
func exchangeUntilDone(ctx context.Context, c *trustvo.TNClient, id string, ep *trustvo.Endpoint, msg *trustvo.Message, tr *tracer, jc *joinCtx) (*trustvo.Outcome, error) {
	for msg != nil {
		reply, err := c.Exchange(ctx, id, msg)
		if err != nil {
			return nil, err
		}
		if reply == nil {
			break // the service consumed our terminal message
		}
		tr.timed(jc, "negotiation.handle", func() { msg, err = ep.Handle(reply) })
		if err != nil {
			return nil, err
		}
	}
	if !ep.Done() {
		return nil, errors.New("negotiation ended without an outcome")
	}
	return ep.Outcome(), nil
}

// forEach runs fn over items with maxConns driving goroutines.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < maxConns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// counts accumulates per-join engine figures over a window.
type counts struct {
	rounds, nodes int
}

func (c *counts) add(out *trustvo.Outcome, ep *trustvo.Endpoint) {
	if out != nil {
		c.rounds += out.Rounds
	}
	if ep != nil && ep.Tree() != nil {
		c.nodes += ep.Tree().Len()
	}
}

func (c *counts) report(w *window) {
	if w.attempted == 0 {
		return
	}
	w.extra["negotiation.rounds_per_join"] = float64(c.rounds) / float64(w.attempted)
	w.extra["negotiation.tree_nodes_per_join"] = float64(c.nodes) / float64(w.attempted)
}
