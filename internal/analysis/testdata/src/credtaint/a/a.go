// Package a is the credtaint golden fixture.
package a

import (
	"errors"
	"time"

	"credtaint/pki"
	"credtaint/xmldom"
)

type svc struct{}

func (svc) AdoptSessionDoc(doc *xmldom.Node) (int, error) { return 0, nil }

func adoptUnverified(s svc, raw string) {
	doc, _ := xmldom.ParseString(raw)
	s.AdoptSessionDoc(doc) // want "reaches AdoptSessionDoc without signature verification"
}

// Every Parse* entry point is a decode site, not only Parse/ParseString.
func adoptUnverifiedBytes(s svc, raw []byte) {
	doc, _ := xmldom.ParseBytes(raw)
	s.AdoptSessionDoc(doc) // want "reaches AdoptSessionDoc without signature verification"
}

func adoptNoExpiry(s svc, k pki.KeyPair, raw string) {
	doc, _ := xmldom.ParseString(raw)
	if !k.VerifyTicket(doc) {
		return
	}
	s.AdoptSessionDoc(doc) // want "reaches AdoptSessionDoc without an expiry check"
}

func adoptWrongOrder(s svc, k pki.KeyPair, raw string, exp time.Time) {
	doc, _ := xmldom.ParseString(raw)
	if !k.VerifyTicket(doc) {
		return
	}
	if time.Now().After(exp) {
		return
	}
	s.AdoptSessionDoc(doc) // want "signature verified before the expiry check"
}

// adoptGuarded checks expiry first, then the signature: the invariant.
func adoptGuarded(s svc, k pki.KeyPair, raw string, exp time.Time) {
	doc, _ := xmldom.ParseString(raw)
	if time.Now().After(exp) {
		return
	}
	if !k.VerifyTicket(doc) {
		return
	}
	s.AdoptSessionDoc(doc)
}

var errRejected = errors.New("rejected")

// checkTicket is a sanitizer: a callee performing both checks makes its
// result trusted at every call site.
func checkTicket(k pki.KeyPair, raw string, exp time.Time) (*xmldom.Node, error) {
	doc, err := xmldom.ParseString(raw)
	if err != nil {
		return nil, err
	}
	if time.Now().After(exp) {
		return nil, errRejected
	}
	if !k.VerifyTicket(doc) {
		return nil, errRejected
	}
	return doc, nil
}

func adoptSanitized(s svc, k pki.KeyPair, raw string, exp time.Time) {
	doc, err := checkTicket(k, raw, exp)
	if err != nil {
		return
	}
	s.AdoptSessionDoc(doc)
}

// relay returns what it decodes; taint composes through it.
func relay(raw string) *xmldom.Node {
	doc, _ := xmldom.ParseString(raw)
	return doc
}

func adoptRelayed(s svc, raw string) {
	s.AdoptSessionDoc(relay(raw)) // want "reaches AdoptSessionDoc without signature verification"
}

// unwrap hands back a piece of its argument unchecked; taint flows
// through the argument.
func unwrap(root *xmldom.Node) *xmldom.Node {
	return root.Child("tnSession")
}

func adoptUnwrapped(s svc, raw string) {
	root, _ := xmldom.ParseString(raw)
	s.AdoptSessionDoc(unwrap(root)) // want "reaches AdoptSessionDoc without signature verification"
}

// checkRoot is a sanitizer over an already-decoded envelope.
func checkRoot(k pki.KeyPair, root *xmldom.Node, exp time.Time) (*xmldom.Node, error) {
	if time.Now().After(exp) {
		return nil, errRejected
	}
	if !k.VerifyTicket(root) {
		return nil, errRejected
	}
	return root.Child("tnSession"), nil
}

func adoptCheckedRoot(s svc, k pki.KeyPair, raw string, exp time.Time) {
	root, _ := xmldom.ParseString(raw)
	doc, err := checkRoot(k, root, exp)
	if err != nil {
		return
	}
	s.AdoptSessionDoc(doc)
}

// checkRootVerifyFirst does both checks in the wrong order: it is no
// sanitizer, and its callers inherit the order.
func checkRootVerifyFirst(k pki.KeyPair, root *xmldom.Node, exp time.Time) (*xmldom.Node, error) {
	if !k.VerifyTicket(root) {
		return nil, errRejected
	}
	if time.Now().After(exp) {
		return nil, errRejected
	}
	return root.Child("tnSession"), nil
}

func adoptCheckedVerifyFirst(s svc, k pki.KeyPair, raw string, exp time.Time) {
	root, _ := xmldom.ParseString(raw)
	doc, err := checkRootVerifyFirst(k, root, exp)
	if err != nil {
		return
	}
	s.AdoptSessionDoc(doc) // want "signature verified before the expiry check"
}

// checkRootNoExpiry only verifies: no sanitizer.
func checkRootNoExpiry(k pki.KeyPair, root *xmldom.Node) (*xmldom.Node, error) {
	if !k.VerifyTicket(root) {
		return nil, errRejected
	}
	return root.Child("tnSession"), nil
}

func adoptCheckedNoExpiry(s svc, k pki.KeyPair, raw string) {
	root, _ := xmldom.ParseString(raw)
	doc, err := checkRootNoExpiry(k, root)
	if err != nil {
		return
	}
	s.AdoptSessionDoc(doc) // want "reaches AdoptSessionDoc without an expiry check"
}

// locally built documents are not tainted.
func adoptLocal(s svc) {
	s.AdoptSessionDoc(&xmldom.Node{Name: "tnSession"})
}

func adoptAllowed(s svc, raw string) {
	doc, _ := xmldom.ParseString(raw)
	s.AdoptSessionDoc(doc) //lint:allow credtaint fixture replays a locally journaled snapshot
}
