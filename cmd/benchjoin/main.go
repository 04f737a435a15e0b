// Command benchjoin regenerates the paper's Fig. 9 ("Join execution
// times"): it hosts the Aircraft Optimization initiator's toolkit on an
// HTTP loopback and times, over many iterations,
//
//	(a) the join WITH the integrated trust negotiation,
//	(b) the join WITHOUT it (the pre-integration baseline), and
//	(c) the identical negotiation run from the standalone TN web service,
//
// printing the same three rows the paper reports, plus the derived
// overhead the paper's §6.3.1 discusses. With -strategies it also prints
// the EXT-3 per-strategy comparison (rounds and latency). With -report
// it writes a structured JSON run report: the median rows plus the full
// telemetry registry (per-phase p50/p95/p99 latency, disclosure and
// session counters) accumulated across every timed negotiation.
//
// With -faults it instead runs the robustness demonstration: the same
// VO join repeated under seeded, deterministic fault injection (dropped,
// delayed, duplicated and truncated messages) and completed through the
// hardened transport's retries plus negotiation suspend/resume. The
// summary — and the -report JSON — then carries the injected-fault
// counts next to the retry, circuit-breaker, replay and resume counters.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"trustvo/internal/core"
	"trustvo/internal/faultinject"
	"trustvo/internal/negotiation"
	"trustvo/internal/pki"
	"trustvo/internal/telemetry"
	"trustvo/internal/vo"
	"trustvo/internal/vo/registry"
	"trustvo/internal/wsrpc"
	"trustvo/internal/xtnl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjoin: ")
	var (
		n          = flag.Int("n", 200, "iterations per measurement")
		strategies = flag.Bool("strategies", false, "also print the per-strategy comparison (EXT-3)")
		reportPath = flag.String("report", "", "write a JSON run report (medians + telemetry) to this file")
		faults     = flag.Bool("faults", false, "run joins under seeded fault injection instead of the Fig. 9 timing")
		seed       = flag.Int64("seed", 1, "fault-injection seed (with -faults)")

		concurrency = flag.Int("concurrency", 0, "run the throughput mode with this many simultaneous joiners instead of the Fig. 9 timing")
		joins       = flag.Int("joins", 0, "total joins in throughput mode (default 25 per worker)")
		out         = flag.String("out", "BENCH_throughput.json", "throughput mode: JSON report path (empty to skip)")

		storeMode = flag.Bool("store", false, "run the durable-write store A/B (group commit vs fsync-every-put, EXT-12) instead of the Fig. 9 timing")
		writers   = flag.Int("writers", 16, "store mode: concurrent writers")
		puts      = flag.Int("puts", 3200, "store mode: total puts per durability mode")
		storeOut  = flag.String("storeout", "BENCH_store.json", "store mode: JSON report path (empty to skip)")

		clusterMode   = flag.Bool("cluster", false, "run the sharded-TN scaling + failover benchmark (EXT-13) instead of the Fig. 9 timing")
		clusterNodes  = flag.Int("nodes", 3, "cluster mode: node count for the scaled half of the A/B")
		clusterRounds = flag.Int("failovers", 6, "cluster mode: node-kill failover recovery rounds")
		clusterOut    = flag.String("clusterout", "BENCH_cluster.json", "cluster mode: JSON report path (empty to skip)")
	)
	flag.Parse()
	if *clusterMode {
		if err := runClusterBench(os.Stdout, *clusterNodes, *concurrency, *joins, *clusterRounds, *clusterOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *storeMode {
		if err := runStoreBench(os.Stdout, *writers, *puts, *storeOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *concurrency > 0 {
		total := *joins
		if total <= 0 {
			total = *concurrency * 25
		}
		if err := runThroughput(os.Stdout, *concurrency, total, *out); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *faults {
		if err := runFaults(os.Stdout, *n, *seed, *reportPath); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(os.Stdout, *n, *strategies, *reportPath); err != nil {
		log.Fatal(err)
	}
}

// benchReport is the -report schema: the Fig. 9 median rows in
// milliseconds plus the registry's structured report.
type benchReport struct {
	Schema     string             `json:"schema"`
	Iterations int                `json:"iterations"`
	MedianMS   map[string]float64 `json:"median_ms"`
	Telemetry  *telemetry.Report  `json:"telemetry"`
}

type env struct {
	srv    *httptest.Server
	tk     *wsrpc.ToolkitService
	member *wsrpc.MemberClient
	ca     *pki.Authority
}

func newEnv(reg *telemetry.Registry) (*env, error) {
	ca, err := pki.NewAuthority("CertCA")
	if err != nil {
		return nil, err
	}
	iniParty := &negotiation.Party{
		Name:     "AircraftCo",
		Profile:  xtnl.NewProfile("AircraftCo"),
		Policies: xtnl.MustPolicySet(),
		Trust:    pki.NewTrustStore(ca),
	}
	contract := &vo.Contract{
		VOName:    "AircraftOptimizationVO",
		Goal:      "wing optimization",
		Initiator: "AircraftCo",
		Roles: []vo.RoleSpec{{
			Name: "DesignWebPortal", Capabilities: []string{"design-db"}, MinMembers: 1,
			AdmissionPolicies: xtnl.MustParsePolicies(
				"M <- WebDesignerQuality(regulation='UNI EN ISO 9000'), AAAMember"),
		}},
	}
	ini, err := core.NewInitiator(contract, iniParty, registry.New())
	if err != nil {
		return nil, err
	}
	if err := ini.VO.StartFormation(); err != nil {
		return nil, err
	}
	tk := wsrpc.NewToolkitService(ini)
	tk.TN.Metrics = reg               // one registry across toolkit, standalone TN and member
	tk.TN.MaxSessionAge = time.Second // keep the session table small across iterations
	tk.TN.DoneRetention = 50 * time.Millisecond
	mux := http.NewServeMux()
	tk.Register(mux)
	srv := httptest.NewServer(mux)

	prof := xtnl.NewProfile("AerospaceCo")
	wdq, err := ca.Issue(pki.IssueRequest{
		Type: "WebDesignerQuality", Holder: "AerospaceCo",
		Attributes: []xtnl.Attribute{{Name: "regulation", Value: "UNI EN ISO 9000"}},
	})
	if err != nil {
		return nil, err
	}
	aaa, err := ca.Issue(pki.IssueRequest{Type: "AAAMember", Holder: "AerospaceCo"})
	if err != nil {
		return nil, err
	}
	prof.Add(wdq, aaa)
	member := &wsrpc.MemberClient{
		BaseURL: srv.URL,
		Party: &negotiation.Party{
			Name: "AerospaceCo", Profile: prof,
			Policies: xtnl.MustPolicySet(), Trust: pki.NewTrustStore(ca),
			Metrics: reg, // requester-side phase latencies land in the same report
		},
	}
	if err := member.Publish(context.Background(), &registry.Description{
		Provider: "AerospaceCo", Service: "DesignPortal", Capabilities: []string{"design-db"},
	}); err != nil {
		return nil, err
	}
	return &env{srv: srv, tk: tk, member: member, ca: ca}, nil
}

// measure runs fn n times and returns the median, preceded by a short
// untimed warm-up.
func measure(n int, fn func() error) (time.Duration, error) {
	for i := 0; i < 3; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	samples := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		samples = append(samples, time.Since(t0))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2], nil
}

func run(w *os.File, n int, strategies bool, reportPath string) error {
	reg := telemetry.NewRegistry()
	e, err := newEnv(reg)
	if err != nil {
		return err
	}
	defer e.srv.Close()
	reset := func() {
		if e.tk.Initiator.VO.Member("AerospaceCo") != nil {
			e.tk.Initiator.VO.Remove("AerospaceCo")
		}
	}

	joinTN, err := measure(n, func() error {
		reset()
		_, _, err := e.member.Join(context.Background(), "DesignWebPortal")
		return err
	})
	if err != nil {
		return fmt.Errorf("join with TN: %w", err)
	}
	join, err := measure(n, func() error {
		reset()
		if _, _, err := e.member.Apply(context.Background(), "DesignWebPortal"); err != nil {
			return err
		}
		_, err := e.member.JoinDirect(context.Background(), "DesignWebPortal")
		return err
	})
	if err != nil {
		return fmt.Errorf("join: %w", err)
	}

	// standalone TN: a separate TN service over the same policies, whose
	// grant is a plain receipt (no admission side effects).
	ctl := &negotiation.Party{
		Name:     "AircraftCo",
		Profile:  e.tk.Initiator.Party.Profile,
		Policies: e.tk.Initiator.Party.Policies,
		Trust:    e.tk.Initiator.Party.Trust,
		Grant:    func(resource, peer string) ([]byte, error) { return []byte("ok"), nil },
	}
	mux := http.NewServeMux()
	tnsvc := wsrpc.NewTNService(ctl)
	tnsvc.Metrics = reg
	tnsvc.MaxSessionAge = time.Second
	tnsvc.DoneRetention = 50 * time.Millisecond
	tnsvc.Register(mux)
	tnSrv := httptest.NewServer(mux)
	defer tnSrv.Close()
	tnClient := &wsrpc.TNClient{BaseURL: tnSrv.URL, Party: e.member.Party}
	resource := vo.MembershipResource("AircraftOptimizationVO", "DesignWebPortal")
	tn, err := measure(n, func() error {
		out, err := tnClient.Negotiate(context.Background(), resource)
		if err != nil {
			return err
		}
		if !out.Succeeded {
			return fmt.Errorf("negotiation failed: %s", out.Reason)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("standalone TN: %w", err)
	}

	fmt.Fprintf(w, "Fig. 9 — Join execution times (median of %d, Aircraft Optimization scenario)\n", n)
	fmt.Fprintf(w, "%-28s %12s    paper (P4 2GHz, SOAP+Oracle)\n", "measurement", "this run")
	fmt.Fprintf(w, "%-28s %12s    ~4000 ms\n", "Join with trust negotiation", fmtDur(joinTN))
	fmt.Fprintf(w, "%-28s %12s    ~3000 ms\n", "Join", fmtDur(join))
	fmt.Fprintf(w, "%-28s %12s    ~1000 ms (read from figure)\n", "trust negotiation", fmtDur(tn))
	fmt.Fprintln(w)
	fmt.Fprintf(w, "shape checks:\n")
	fmt.Fprintf(w, "  TN overhead on join:   %s (JoinTN − Join)   vs standalone TN %s\n",
		fmtDur(joinTN-join), fmtDur(tn))
	fmt.Fprintf(w, "  additivity Join+TN:    %s ≈ JoinTN %s\n", fmtDur(join+tn), fmtDur(joinTN))
	fmt.Fprintf(w, "  overhead ratio:        %.2fx (paper: 1.33x; see EXPERIMENTS.md for the analysis)\n",
		float64(joinTN)/float64(join))

	if strategies {
		fmt.Fprintln(w)
		if err := runStrategies(w, n, e); err != nil {
			return err
		}
	}
	if reportPath != "" {
		rep := benchReport{
			Schema:     "trustvo.benchjoin/v1",
			Iterations: n,
			MedianMS: map[string]float64{
				"join_with_tn":  durMS(joinTN),
				"join":          durMS(join),
				"tn_standalone": durMS(tn),
			},
			Telemetry: reg.Report(),
		}
		f, err := os.Create(reportPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nrun report written to %s\n", reportPath)
	}
	return nil
}

func durMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// faultReport is the -faults -report schema: join outcomes, injected
// fault counts, and the full telemetry registry (retry, breaker, replay
// and resume counters included).
type faultReport struct {
	Schema    string            `json:"schema"`
	Seed      int64             `json:"seed"`
	Joins     int               `json:"joins"`
	Completed int               `json:"completed"`
	Resumes   int               `json:"resumes"`
	Faults    map[string]int64  `json:"faults_injected"`
	Telemetry *telemetry.Report `json:"telemetry"`
}

// runFaults repeats the full VO join under seeded fault injection and
// reports how the hardened transport carried it through: every join must
// converge via retries — or suspend into a resume ticket that the next
// ResumeJoin completes.
func runFaults(w *os.File, n int, seed int64, reportPath string) error {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	e, err := newEnv(reg) // Publish runs over the clean transport
	if err != nil {
		return err
	}
	defer e.srv.Close()

	ft := faultinject.New(faultinject.Config{
		Seed:      seed,
		Drop:      0.20,
		Delay:     0.30,
		MaxDelay:  2 * time.Millisecond,
		Duplicate: 0.05,
		Truncate:  0.05,
	}, nil)
	ft.Metrics = reg
	// Under a 20% drop rate the default 4 attempts still give up about
	// once per ~600 requests; raise the budget so a run of joins
	// converges, and keep backoff tight for a loopback server.
	e.member.Transport = &wsrpc.Transport{
		HTTP: &http.Client{Transport: ft},
		Retry: wsrpc.RetryPolicy{
			MaxAttempts: 8,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    250 * time.Millisecond,
		},
		Metrics: reg,
	}
	e.member.ResumeTTL = time.Minute

	fmt.Fprintf(w, "fault-injection run: %d joins, seed=%d, profile drop=20%% delay=30%% dup=5%% trunc=5%%\n", n, seed)
	t0 := time.Now()
	completed, resumes := 0, 0
	for i := 0; i < n; i++ {
		if e.tk.Initiator.VO.Member("AerospaceCo") != nil {
			e.tk.Initiator.VO.Remove("AerospaceCo")
		}
		_, _, err := e.member.Join(ctx, "DesignWebPortal")
		for attempt := 0; err != nil; attempt++ {
			var se *wsrpc.SuspendedError
			if !errors.As(err, &se) {
				return fmt.Errorf("join %d failed unrecoverably: %w", i, err)
			}
			if attempt >= 10 {
				return fmt.Errorf("join %d: still suspended after %d resumes: %w", i, attempt, err)
			}
			resumes++
			_, _, err = e.member.ResumeJoin(ctx, se.Ticket)
		}
		completed++
	}
	elapsed := time.Since(t0)

	//lint:allow metricname read-side helper; names below are literals
	counter := func(name string, lv ...string) int64 { return reg.Counter(name, lv...).Value() }
	retries := counter("wsrpc_client_retries_total", "route", "/tn/start") +
		counter("wsrpc_client_retries_total", "route", "/tn/policyExchange") +
		counter("wsrpc_client_retries_total", "route", "/tn/credentialExchange") +
		counter("wsrpc_client_retries_total", "route", "/vo/apply")
	fmt.Fprintf(w, "  joins completed:   %d/%d in %v\n", completed, n, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  faults injected:   %s\n", ft.Stats.String())
	fmt.Fprintf(w, "  client retries:    %d (start/policy/credential/apply)\n", retries)
	fmt.Fprintf(w, "  breaker rejected:  %d   breaker tripped: %d\n",
		sumByRoute(reg, "wsrpc_client_breaker_rejected_total"),
		sumByRoute(reg, "wsrpc_client_breaker_tripped_total"))
	fmt.Fprintf(w, "  server replays:    %d (duplicate-suppression cache hits)\n", counter("tn_replays_total"))
	fmt.Fprintf(w, "  suspends/resumes:  %d/%d\n", counter("tn_suspends_total"), resumes)

	if reportPath != "" {
		rep := faultReport{
			Schema:    "trustvo.benchjoin.faults/v1",
			Seed:      seed,
			Joins:     n,
			Completed: completed,
			Resumes:   resumes,
			Faults: map[string]int64{
				"requests":  ft.Stats.Requests.Load(),
				"drop_pre":  ft.Stats.DropsPre.Load(),
				"drop_post": ft.Stats.DropsPost.Load(),
				"delay":     ft.Stats.Delays.Load(),
				"duplicate": ft.Stats.Duplicates.Load(),
				"truncate":  ft.Stats.Truncations.Load(),
			},
			Telemetry: reg.Report(),
		}
		f, err := os.Create(reportPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nrun report written to %s\n", reportPath)
	}
	return nil
}

// sumByRoute totals a per-route counter over the TN and toolkit routes
// the join touches.
func sumByRoute(reg *telemetry.Registry, name string) int64 {
	var total int64
	for _, route := range []string{
		"/tn/start", "/tn/policyExchange", "/tn/credentialExchange", "/tn/status", "/vo/apply",
	} {
		total += reg.Counter(name, "route", route).Value() //lint:allow metricname read-side sum helper; call sites pass literals
	}
	return total
}

// runStrategies prints the EXT-3 strategy comparison over in-process
// negotiations of the same admission scenario.
func runStrategies(w *os.File, n int, e *env) error {
	fmt.Fprintf(w, "EXT-3 — strategy comparison (in-process, median of %d)\n", n)
	fmt.Fprintf(w, "%-20s %12s %8s\n", "strategy", "latency", "rounds")
	ctl := &negotiation.Party{
		Name:     "AircraftCo",
		Profile:  e.tk.Initiator.Party.Profile,
		Policies: e.tk.Initiator.Party.Policies,
		Trust:    e.tk.Initiator.Party.Trust,
		Grant:    func(resource, peer string) ([]byte, error) { return []byte("ok"), nil },
	}
	resource := vo.MembershipResource("AircraftOptimizationVO", "DesignWebPortal")
	for _, s := range []negotiation.Strategy{negotiation.Trusting, negotiation.Standard} {
		req := *e.member.Party
		req.Strategy = s
		rounds := 0
		d, err := measure(n, func() error {
			out, _, err := negotiation.Run(&req, ctl, resource)
			if err != nil {
				return err
			}
			if !out.Succeeded {
				return fmt.Errorf("%s: %s", s, out.Reason)
			}
			rounds = out.Rounds
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-20s %12s %8d\n", s, fmtDur(d), rounds)
	}
	// suspicious strategies need selective credentials (§6.3)
	sel, err := e.ca.IssueSelective(pki.IssueRequest{
		Type: "WebDesignerQuality", Holder: "AerospaceCo",
		Attributes: []xtnl.Attribute{{Name: "regulation", Value: "UNI EN ISO 9000"}},
	})
	if err != nil {
		return err
	}
	selAAA, err := e.ca.IssueSelective(pki.IssueRequest{Type: "AAAMember", Holder: "AerospaceCo"})
	if err != nil {
		return err
	}
	keys, err := pki.GenerateKeyPair()
	if err != nil {
		return err
	}
	ctlKeys, err := pki.GenerateKeyPair()
	if err != nil {
		return err
	}
	ctl2 := *ctl
	ctl2.Keys = ctlKeys
	// EXT-9: the trust-ticket fast path on repeat negotiations.
	{
		reqT := *e.member.Party
		reqT.Tickets = negotiation.NewTicketCache()
		ctlT := *ctl
		keysT, err := pki.GenerateKeyPair()
		if err != nil {
			return err
		}
		ctlT.Keys = keysT
		ctlT.TicketTTL = time.Hour
		if out, _, err := negotiation.Run(&reqT, &ctlT, resource); err != nil || !out.Succeeded {
			return fmt.Errorf("ticket priming failed: %w", err)
		}
		rounds := 0
		d, err := measure(n, func() error {
			out, _, err := negotiation.Run(&reqT, &ctlT, resource)
			if err != nil {
				return err
			}
			if !out.Succeeded {
				return fmt.Errorf("ticketed: %s", out.Reason)
			}
			rounds = out.Rounds
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-20s %12s %8d\n", "trust ticket", fmtDur(d), rounds)
	}
	for _, s := range []negotiation.Strategy{negotiation.Suspicious, negotiation.StrongSuspicious} {
		req := negotiation.Party{
			Name:     "AerospaceCo",
			Profile:  xtnl.NewProfile("AerospaceCo"),
			Policies: xtnl.MustPolicySet(),
			Trust:    e.member.Party.Trust,
			Strategy: s,
			Keys:     keys,
			Selective: map[string]*pki.SelectiveCredential{
				sel.Committed.ID:    sel,
				selAAA.Committed.ID: selAAA,
			},
		}
		rounds := 0
		d, err := measure(n, func() error {
			out, _, err := negotiation.Run(&req, &ctl2, resource)
			if err != nil {
				return err
			}
			if !out.Succeeded {
				return fmt.Errorf("%s: %s", s, out.Reason)
			}
			rounds = out.Rounds
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-20s %12s %8d\n", s, fmtDur(d), rounds)
	}
	return nil
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3f ms", float64(d.Microseconds())/1000)
}
