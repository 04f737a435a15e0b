package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"trustvo"
)

// fig9_join: the paper's Fig. 9 join, closed loop, one client. The member
// applies to the VO, negotiates membership with the toolkit's integrated
// TN service over HTTP, and is admitted with an X.509 membership token.
// Between joins the member is removed from the VO, untimed.

const (
	fig9VO        = "AircraftOptimizationVO"
	fig9Role      = "DesignWebPortal"
	fig9Initiator = "AircraftCo"
	fig9Policy    = "M <- WebDesignerQuality(regulation='UNI EN ISO 9000'), AAAMember"
	warmupJoins   = 50
)

type fig9Fixture struct {
	srv    *server
	mux    *http.ServeMux
	ini    *trustvo.Initiator
	grant  func(resource, peer string) ([]byte, error)
	member *trustvo.Party
}

func setupFig9(seed int64) (fixture, error) {
	ca, err := trustvo.NewAuthority("CertCA")
	if err != nil {
		return nil, err
	}
	iniParty := &trustvo.Party{
		Name:     fig9Initiator,
		Profile:  trustvo.NewProfile(fig9Initiator),
		Policies: trustvo.MustPolicySet(),
		Trust:    trustvo.NewTrustStore(ca),
	}
	contract := &trustvo.Contract{
		VOName:    fig9VO,
		Goal:      "wing optimization",
		Initiator: fig9Initiator,
		Roles: []trustvo.RoleSpec{{
			Name: fig9Role, Capabilities: []string{"design-db"}, MinMembers: 1,
			AdmissionPolicies: trustvo.MustParsePolicies(fig9Policy),
		}},
	}
	ini, err := trustvo.NewInitiator(contract, iniParty, trustvo.NewRegistry())
	if err != nil {
		return nil, err
	}
	if err := ini.VO.StartFormation(); err != nil {
		return nil, err
	}
	// The toolkit service as voctl serve configures it: default session
	// limits and ages.
	tk := trustvo.NewToolkitService(ini)
	mux := http.NewServeMux()
	tk.Register(mux)
	fx := &fig9Fixture{srv: newServer(mux), mux: mux, ini: ini, grant: ini.Party.Grant}

	name := fmt.Sprintf("AerospaceCo%d", newRand(seed, 1).Intn(1000))
	prof := trustvo.NewProfile(name)
	for _, req := range []trustvo.IssueRequest{
		{Type: "WebDesignerQuality", Holder: name,
			Attributes: []trustvo.Attribute{{Name: "regulation", Value: "UNI EN ISO 9000"}}},
		{Type: "AAAMember", Holder: name},
	} {
		c, err := ca.Issue(req)
		if err != nil {
			fx.close()
			return nil, err
		}
		prof.Add(c)
	}
	fx.member = &trustvo.Party{
		Name: name, Profile: prof,
		Policies: trustvo.MustPolicySet(), Trust: trustvo.NewTrustStore(ca),
	}
	mc := &trustvo.MemberClient{BaseURL: fx.srv.url(), Party: fx.member, Transport: fx.srv.transport(nil)}
	ctx := context.Background()
	if err := mc.Publish(ctx, &trustvo.Description{
		Provider: name, Service: "DesignPortal", Capabilities: []string{"design-db"},
	}); err != nil {
		fx.close()
		return nil, err
	}
	if _, err := fx.run(ctx, windowOpts{}); err != nil { // warm-up
		fx.close()
		return nil, err
	}
	return fx, nil
}

// run joins repeatedly for o.d; a zero d runs the warm-up joins instead.
func (fx *fig9Fixture) run(ctx context.Context, o windowOpts) (*window, error) {
	d, tr := o.d, o.tr
	wt := fx.srv.transport(tr)
	mc := &trustvo.MemberClient{BaseURL: fx.srv.url(), Party: fx.member, Transport: wt}
	tn := &trustvo.TNClient{BaseURL: fx.srv.url(), Party: fx.member, Transport: wt}
	fx.srv.set(tr.handler(fx.mux))
	fx.ini.Party.Grant = tr.wrapGrant("pki.x509_mint", fx.grant)
	if tr != nil {
		tr.reqVerifier, tr.respVerifier = fx.ini.Party.Trust, fx.member.Trust
	}
	w := newWindow()
	w.chunkRate = true
	before := readVerify(fx.ini.Party.Trust, fx.member.Trust)
	deadline := w.start.Add(d)
	var grants [][]byte
	for i := 0; ; i++ {
		if d == 0 && i == warmupJoins || d > 0 && !time.Now().Before(deadline) {
			break
		}
		if fx.ini.VO.Member(fx.member.Name) != nil {
			if err := fx.ini.VO.Remove(fx.member.Name); err != nil {
				return nil, fmt.Errorf("remove member: %w", err)
			}
		}
		jctx, jc := tr.beginJoin(ctx)
		t0 := time.Now()
		out, ep, err := fx.join(jctx, mc, tn, tr, jc)
		end := time.Now()
		lat := end.Sub(t0)
		tr.endJoin(jc)
		w.attempted++
		w.eng.add(out, ep)
		if err != nil {
			w.fail("join %d: %v", i, err)
			continue
		}
		if !out.Succeeded {
			w.fail("join %d refused: %s", i, out.Reason)
			continue
		}
		grants = append(grants, out.Grant)
		w.add(lat, end)
	}
	w.elapsed = time.Since(w.start)
	// Verdict: every grant is a membership token the VO verifies for this
	// member, checked once the window's figures are taken.
	w.check = func() {
		for i, g := range grants {
			if m, err := fx.ini.VO.VerifyMembership(g); err != nil || m.Name != fx.member.Name {
				w.fail("grant %d: membership token: %v", i, err)
				continue
			}
			w.completed++
		}
	}
	addVerifyDelta(w, before, readVerify(fx.ini.Party.Trust, fx.member.Trust))
	if d == 0 {
		w.check()
		if w.failed > 0 {
			return nil, fmt.Errorf("warm-up: %s", w.errs[0])
		}
	}
	return w, nil
}

// join is one Fig. 9 join: apply for the role, then negotiate for the
// membership resource the invitation names.
func (fx *fig9Fixture) join(ctx context.Context, mc *trustvo.MemberClient, tn *trustvo.TNClient, tr *tracer, jc *joinCtx) (*trustvo.Outcome, *trustvo.Endpoint, error) {
	_, resource, err := mc.Apply(ctx, fig9Role)
	if err != nil {
		return nil, nil, fmt.Errorf("apply: %w", err)
	}
	return negotiate(ctx, tn, resource, tr, jc)
}

func (fx *fig9Fixture) close() { fx.srv.close() }
