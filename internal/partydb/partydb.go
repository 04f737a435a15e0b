// Package partydb persists a negotiation party's X-Profile, disclosure
// policies and ontology in the embedded document store (internal/store),
// reproducing the paper's database-backed TN service: "StartNegotiation …
// opens the connection with [the] Oracle database containing the
// disclosure policies and credentials of the invoker" (§6.2), and
// "PolicyExchange checks if the database contains disclosure policies
// protecting the credentials requested".
//
// Documents are stored under three kinds:
//
//	credential/<owner>/<credID>   Fig. 6 credential documents
//	policy/<owner>/<polID>        Fig. 7 policy documents
//	ontology/<owner>              OWL-sketch ontology documents
//
// The package is durability-agnostic — it writes through whatever
// *store.Store it is given — but the servers (cmd/tnserve, voctl serve)
// open their stores with store.OpenDurable, so every Save here is on
// stable storage once it returns. SaveResumeTicket additionally calls
// Sync itself: a resume ticket is written precisely because the process
// may die next, so it must not wait in an OS cache.
package partydb

import (
	"fmt"
	"strconv"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/ontology"
	"trustvo/internal/store"
	"trustvo/internal/xtnl"
)

// Kinds used in the store.
const (
	KindCredential = "credential"
	KindPolicy     = "policy"
	KindOntology   = "ontology"
	// KindResumeTicket holds suspended-negotiation resume tickets
	// (negotiation.ResumeTicket), keyed <owner>/<negID>, so an
	// interrupted party survives a process restart and still resumes.
	KindResumeTicket = "resume"
)

func credKey(owner, id string) string { return owner + "/" + id }

// SaveProfile writes every credential of the profile.
func SaveProfile(db *store.Store, p *xtnl.Profile) error {
	for _, c := range p.All() {
		if c.ID == "" {
			return fmt.Errorf("partydb: credential of type %q has no ID", c.Type)
		}
		if err := db.Put(KindCredential, credKey(p.Owner, c.ID), c.DOM()); err != nil {
			return err
		}
	}
	return nil
}

// LoadProfile reads the owner's credentials back into an X-Profile.
func LoadProfile(db *store.Store, owner string) (*xtnl.Profile, error) {
	p := xtnl.NewProfile(owner)
	prefix := owner + "/"
	for _, rec := range db.List(KindCredential) {
		if len(rec.Key) <= len(prefix) || rec.Key[:len(prefix)] != prefix {
			continue
		}
		doc, err := rec.Doc()
		if err != nil {
			return nil, err
		}
		c, err := xtnl.CredentialFromDOM(doc)
		if err != nil {
			return nil, fmt.Errorf("partydb: credential %s: %w", rec.Key, err)
		}
		p.Add(c)
	}
	return p, nil
}

// SavePolicies writes every policy of the set, assigning sequential IDs
// to policies that lack one.
func SavePolicies(db *store.Store, owner string, ps *xtnl.PolicySet) error {
	for i, pol := range ps.All() {
		id := pol.ID
		if id == "" {
			id = "pol-" + strconv.Itoa(i)
		}
		if err := db.Put(KindPolicy, credKey(owner, id), pol.DOM()); err != nil {
			return err
		}
	}
	return nil
}

// LoadPolicies reads the owner's disclosure policies.
func LoadPolicies(db *store.Store, owner string) (*xtnl.PolicySet, error) {
	ps, _ := xtnl.NewPolicySet()
	prefix := owner + "/"
	for _, rec := range db.List(KindPolicy) {
		if len(rec.Key) <= len(prefix) || rec.Key[:len(prefix)] != prefix {
			continue
		}
		doc, err := rec.Doc()
		if err != nil {
			return nil, err
		}
		pol, err := xtnl.PolicyFromDOM(doc)
		if err != nil {
			return nil, fmt.Errorf("partydb: policy %s: %w", rec.Key, err)
		}
		if err := ps.Add(pol); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// SaveOntology writes the owner's local ontology.
func SaveOntology(db *store.Store, owner string, o *ontology.Ontology) error {
	return db.Put(KindOntology, owner, o.DOM())
}

// LoadOntology reads the owner's local ontology; it returns (nil, nil)
// when none is stored.
func LoadOntology(db *store.Store, owner string) (*ontology.Ontology, error) {
	rec, err := db.Get(KindOntology, owner)
	if err != nil {
		return nil, nil // not stored
	}
	return ontology.ParseOntology(rec.XML)
}

// SaveParty persists the party's negotiation state (profile, policies
// and — when present — ontology).
func SaveParty(db *store.Store, p *negotiation.Party) error {
	if err := SaveProfile(db, p.Profile); err != nil {
		return err
	}
	if err := SavePolicies(db, p.Name, p.Policies); err != nil {
		return err
	}
	if p.Mapper != nil {
		return SaveOntology(db, p.Name, p.Mapper.Ontology)
	}
	return nil
}

// LoadParty rebuilds a party's negotiation state from the store. Trust
// anchors, keys and hooks are not stored (they come from configuration),
// so the caller passes a template carrying them; the returned party has
// the template's identity fields with the stored profile, policies and
// ontology.
func LoadParty(db *store.Store, template *negotiation.Party) (*negotiation.Party, error) {
	p := *template
	var err error
	if p.Profile, err = LoadProfile(db, template.Name); err != nil {
		return nil, err
	}
	if p.Policies, err = LoadPolicies(db, template.Name); err != nil {
		return nil, err
	}
	o, err := LoadOntology(db, template.Name)
	if err != nil {
		return nil, err
	}
	if o != nil {
		p.Mapper = &ontology.Mapper{Ontology: o, Profile: p.Profile}
	}
	return &p, nil
}

// SaveResumeTicket persists a suspended negotiation's resume ticket.
func SaveResumeTicket(db *store.Store, owner string, t *negotiation.ResumeTicket) error {
	if t.NegID == "" {
		return fmt.Errorf("partydb: resume ticket without negotiation id")
	}
	if err := db.Put(KindResumeTicket, credKey(owner, t.NegID), t.DOM()); err != nil {
		return err
	}
	return db.Sync()
}

// LoadResumeTickets reads the owner's stored resume tickets, dropping
// expired ones from the store as a side effect.
func LoadResumeTickets(db *store.Store, owner string, now time.Time) ([]*negotiation.ResumeTicket, error) {
	prefix := owner + "/"
	var out []*negotiation.ResumeTicket
	for _, rec := range db.List(KindResumeTicket) {
		if len(rec.Key) <= len(prefix) || rec.Key[:len(prefix)] != prefix {
			continue
		}
		doc, err := rec.Doc()
		if err != nil {
			return nil, err
		}
		t, err := negotiation.ResumeTicketFromDOM(doc)
		if err != nil {
			return nil, fmt.Errorf("partydb: resume ticket %s: %w", rec.Key, err)
		}
		if now.After(t.Expires) {
			db.Delete(KindResumeTicket, rec.Key)
			continue
		}
		out = append(out, t)
	}
	return out, nil
}

// DeleteResumeTicket removes a consumed (or abandoned) resume ticket.
func DeleteResumeTicket(db *store.Store, owner, negID string) error {
	return db.Delete(KindResumeTicket, credKey(owner, negID))
}

// PoliciesProtecting returns the stored policies of owner whose resource
// equals the requested credential type — the PolicyExchange lookup of
// §6.2 ("checks if the database contains disclosure policies protecting
// the credentials requested in the counterpart's disclosure policies").
func PoliciesProtecting(db *store.Store, owner, resource string) ([]*xtnl.Policy, error) {
	ps, err := LoadPolicies(db, owner)
	if err != nil {
		return nil, err
	}
	return ps.For(resource), nil
}
