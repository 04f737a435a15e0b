package wsrpc

import (
	"testing"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/partydb"
	"trustvo/internal/pki"
	"trustvo/internal/store"
	"trustvo/internal/xtnl"
)

// partyCacheFixture builds a DB-backed TNService whose store holds one
// credential and one policy for the controller.
func partyCacheFixture(t *testing.T) (*TNService, *store.Store) {
	t.Helper()
	ca := pki.MustNewAuthority("CertCA")
	db := store.New()
	full := &negotiation.Party{
		Name:    "AircraftCo",
		Profile: xtnl.NewProfile("AircraftCo"),
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies(
			"Certification <- AAAMember")...),
		Trust: pki.NewTrustStore(ca),
	}
	full.Profile.Add(ca.MustIssue(pki.IssueRequest{Type: "ISOCert", Holder: "AircraftCo"}))
	if err := partydb.SaveParty(db, full); err != nil {
		t.Fatal(err)
	}
	template := &negotiation.Party{
		Name:     "AircraftCo",
		Profile:  xtnl.NewProfile("AircraftCo"),
		Policies: xtnl.MustPolicySet(),
		Trust:    pki.NewTrustStore(ca),
	}
	svc := NewTNService(template)
	svc.DB = db
	return svc, db
}

// reloads reads the tn_party_reloads_total counter.
func reloads(s *TNService) int64 {
	return s.Metrics.Counter("tn_party_reloads_total").Value()
}

// TestPartyReloadScopedInvalidation is the regression test for the memo
// key bug: loadPartyCached used to key on the store's GLOBAL generation,
// so every resume-ticket or replicated-session write (which the chaos
// and suspend paths produce constantly) invalidated the memo and forced
// a full re-parse of all credentials and policies. The memo must only
// turn over when a kind the party is built from changes.
func TestPartyReloadScopedInvalidation(t *testing.T) {
	svc, db := partyCacheFixture(t)

	p1, err := svc.loadPartyCached()
	if err != nil {
		t.Fatal(err)
	}
	if got := reloads(svc); got != 1 {
		t.Fatalf("reloads after first load = %d, want 1", got)
	}

	// Writes to kinds the party does NOT read: resume tickets and
	// replicated session documents.
	tkt := &negotiation.ResumeTicket{NegID: "n1", Expires: time.Now().Add(time.Hour)}
	if err := partydb.SaveResumeTicket(db, "AircraftCo", tkt); err != nil {
		t.Fatal(err)
	}
	if err := db.PutXML(KindTNSession, "s1", `<tnSession id="s1"/>`); err != nil {
		t.Fatal(err)
	}

	p2, err := svc.loadPartyCached()
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Error("unrelated-kind writes invalidated the party memo")
	}
	if got := reloads(svc); got != 1 {
		t.Errorf("reloads after unrelated writes = %d, want 1 (no thrash)", got)
	}

	// A write to a party kind must invalidate.
	ca := pki.MustNewAuthority("OtherCA")
	cred := ca.MustIssue(pki.IssueRequest{Type: "AAAMember", Holder: "AircraftCo"})
	if err := db.Put("credential", "AircraftCo/"+cred.ID, cred.DOM()); err != nil {
		t.Fatal(err)
	}
	p3, err := svc.loadPartyCached()
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p2 {
		t.Error("credential write did not invalidate the party memo")
	}
	if got := reloads(svc); got != 2 {
		t.Errorf("reloads after credential write = %d, want 2", got)
	}
}
