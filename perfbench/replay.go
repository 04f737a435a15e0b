package main

import (
	"bytes"
	"time"

	"trustvo"
	"trustvo/internal/xmldom"
)

// Replays re-run single layers on the exact inputs a traced window
// captured, after that window ends. They are labelled as replays: the
// time is measured in isolation, not inside the join path, so it bounds
// what the layer costs per join rather than attributing path time.

// replayMinTime is how long each replay repeats its pass; the reported
// figure is the median pass.
const replayMinTime = 150 * time.Millisecond

// replayJoin is one captured join prepared for the replays.
type replayJoin struct {
	bodies [][]byte // wire bodies (HTTP workloads only)
	xml    []string // tnMessage elements as text
	creds  []*trustvo.Credential
	pools  [][]*trustvo.Credential // delegation chain offered with each credential
	vers   []*trustvo.TrustStore   // receiving trust store for each credential
}

// prepareReplays decodes the captured joins (untimed).
func prepareReplays(t *tracer) ([]replayJoin, error) {
	var out []replayJoin
	for _, jc := range t.captured {
		bodies, msgs := jc.captures()
		var rj replayJoin
		for _, b := range bodies {
			rj.bodies = append(rj.bodies, b.data)
			root, err := xmldom.Parse(bytes.NewReader(b.data))
			if err != nil {
				return nil, err
			}
			tm := root.Child("tnMessage")
			if tm == nil {
				continue // start/status/apply bodies carry no TN message
			}
			text := tm.XML()
			m, err := trustvo.ParseMessage(text)
			if err != nil {
				return nil, err
			}
			rj.xml = append(rj.xml, text)
			ver := t.respVerifier
			if b.req {
				ver = t.reqVerifier
			}
			msgs = append(msgs, capturedMsg{msg: m, verifier: ver})
		}
		for _, cm := range msgs {
			if cm.verifier == nil {
				continue
			}
			add := func(c *trustvo.Credential, chain []*trustvo.Credential) {
				if c == nil {
					return
				}
				rj.creds = append(rj.creds, c)
				rj.pools = append(rj.pools, chain)
				rj.vers = append(rj.vers, cm.verifier)
			}
			for _, d := range cm.msg.Disclosures {
				add(d.Credential, d.Chain)
			}
			for _, a := range cm.msg.Answers {
				if a.Disclosure != nil {
					add(a.Disclosure.Credential, a.Disclosure.Chain)
				}
			}
		}
		if len(rj.bodies) > 0 || len(msgs) > 0 {
			out = append(out, rj)
		}
	}
	return out, nil
}

// repeatPass runs pass until replayMinTime has elapsed (at least three
// times) and returns the median pass duration.
func repeatPass(pass func() error) (time.Duration, error) {
	var times []time.Duration
	deadline := time.Now().Add(replayMinTime)
	for len(times) < 3 || time.Now().Before(deadline) {
		start := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start))
	}
	return quantile(sortedDurations(times), 0.5), nil
}

// coldCopy builds an empty-cache trust store with the same roots.
func coldCopy(ts *trustvo.TrustStore) *trustvo.TrustStore {
	c := trustvo.NewTrustStore()
	for _, name := range ts.Roots() {
		if key, ok := ts.KeyFor(name); ok {
			c.AddRoot(name, key)
		}
	}
	return c
}

// sink keeps replay results alive so the compiler cannot drop the work.
var sink int

// runReplays times the four replays and returns them per captured join,
// in microseconds, keyed by per-layer metric name.
func runReplays(t *tracer) (map[string]float64, error) {
	joins, err := prepareReplays(t)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{
		"xmldom.parse_us_per_join_replay":      0,
		"negotiation.codec_us_per_join_replay": 0,
		"xtnl.signed_bytes_us_per_join_replay": 0,
		"pki.verify_us_per_join_replay":        0,
	}
	if len(joins) == 0 {
		return out, nil
	}
	perJoin := func(d time.Duration) float64 { return us(d) / float64(len(joins)) }

	hasBodies := false
	for _, j := range joins {
		hasBodies = hasBodies || len(j.bodies) > 0
	}
	if hasBodies {
		d, err := repeatPass(func() error {
			for _, j := range joins {
				for _, b := range j.bodies {
					root, err := xmldom.Parse(bytes.NewReader(b))
					if err != nil {
						return err
					}
					sink += len(root.Name)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out["xmldom.parse_us_per_join_replay"] = perJoin(d)

		d, err = repeatPass(func() error {
			for _, j := range joins {
				for _, text := range j.xml {
					m, err := trustvo.ParseMessage(text)
					if err != nil {
						return err
					}
					sink += len(m.XML())
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out["negotiation.codec_us_per_join_replay"] = perJoin(d)
	}

	d, err := repeatPass(func() error {
		for _, j := range joins {
			for _, c := range j.creds {
				sink += len(c.SignedBytes())
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["xtnl.signed_bytes_us_per_join_replay"] = perJoin(d)

	// Cold verify: every credential against a fresh copy of its receiver's
	// trust store, so no pass hits the verify cache. The copies are built
	// before each pass starts its clock.
	var times []time.Duration
	deadline := time.Now().Add(replayMinTime)
	now := time.Now()
	for len(times) < 3 || time.Now().Before(deadline) {
		stores := make([][]*trustvo.TrustStore, len(joins))
		for i, j := range joins {
			stores[i] = make([]*trustvo.TrustStore, len(j.vers))
			for k, v := range j.vers {
				stores[i][k] = coldCopy(v)
			}
		}
		start := time.Now()
		for i, j := range joins {
			for k, c := range j.creds {
				if _, err := stores[i][k].VerifyChain(c, j.pools[k], now); err != nil {
					return nil, err
				}
			}
		}
		times = append(times, time.Since(start))
	}
	out["pki.verify_us_per_join_replay"] = perJoin(quantile(sortedDurations(times), 0.5))
	return out, nil
}
