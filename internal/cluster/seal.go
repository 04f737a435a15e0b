package cluster

import (
	"context"
	"crypto/ed25519"
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"time"

	"trustvo/internal/xmldom"
)

// Sealed session envelopes: every suspended-state document that leaves
// a node — a migration ticket to the session's new owner, or a standby
// ship to its ring successor (or parked locally) — is
//
//	<root id=… node=… notAfter=RFC3339><tnSession …/><signature>base64</signature></root>
//
// signed with the shared cluster key (standing in for a cluster-internal
// CA) over prefix|id|notAfter|<tnSession XML>. The signature stops a
// forged or replayed-from-backup snapshot from hijacking a negotiation,
// the per-kind prefix stops one kind being replayed as the other, and
// the expiry bounds how stale an adopted state can be.

// sealKind fixes one envelope format.
type sealKind struct {
	root   string                    // root element name
	prefix string                    // signature domain-separation prefix
	path   string                    // ingress route on the receiving node
	fault  string                    // fault-code stem: <fault>-expired, <fault>-signature
	ttl    func(*Node) time.Duration // validity from sealing
}

var (
	// ticketKind moves a session to its current ring owner.
	ticketKind = &sealKind{root: "sessionTicket", prefix: "trustvo-session|", path: "/cluster/adopt",
		fault: "ticket", ttl: (*Node).ticketTTL}
	// standbyKind ships a per-message snapshot to the ring successor. A
	// snapshot too old for the standby table is also too old to adopt.
	standbyKind = &sealKind{root: "standbyShip", prefix: "trustvo-standby|", path: "/cluster/standby",
		fault: "standby", ttl: (*Node).standbyTTL}
)

// Typed unseal rejections.
var (
	errSealExpired   = errors.New("expired")
	errSealSignature = errors.New("signature verification failed")
	errSealNoKey     = errors.New("node has no cluster verification key")
)

// signedBytes is the byte string a kind's signature covers.
func (k *sealKind) signedBytes(id, notAfter, docXML string) []byte {
	return []byte(k.prefix + id + "|" + notAfter + "|" + docXML)
}

// seal wraps one suspended-session document in a signed envelope of
// kind k that expires the kind's TTL from now.
func (n *Node) seal(k *sealKind, id string, doc *xmldom.Node) (*xmldom.Node, error) {
	return n.sealUntil(k, id, doc, time.Now().Add(k.ttl(n)))
}

// sealUntil is seal with an explicit expiry.
func (n *Node) sealUntil(k *sealKind, id string, doc *xmldom.Node, notAfter time.Time) (*xmldom.Node, error) {
	if n.keys == nil {
		return nil, fmt.Errorf("cluster: node %s has no %s signing key", n.cfg.Name, k.root)
	}
	exp := notAfter.UTC().Format(time.RFC3339)
	sig := n.keys.Sign(k.signedBytes(id, exp, doc.XML()))
	root := xmldom.NewElement(k.root).
		SetAttr("id", id).
		SetAttr("node", n.cfg.Name).
		SetAttr("notAfter", exp)
	root.AppendChild(doc)
	sigEl := xmldom.NewElement("signature")
	sigEl.AppendChild(xmldom.NewText(base64.StdEncoding.EncodeToString(sig)))
	root.AppendChild(sigEl)
	return root, nil
}

// postSealed seals doc as kind k and POSTs it to target's ingress.
func (n *Node) postSealed(ctx context.Context, k *sealKind, target, id string, doc *xmldom.Node) error {
	base := n.peerURL(target)
	if base == "" {
		return fmt.Errorf("cluster: no address for %s target %s", k.root, target)
	}
	env, err := n.seal(k, id, doc)
	if err != nil {
		return err
	}
	_, err = n.transport.Call(ctx, http.MethodPost, base, k.path, "", env.XML(), true)
	return err
}

// unseal validates an envelope of kind k and returns the embedded
// session document; it is the only way back from a sealed snapshot.
// Expiry is checked before the signature, so an expired envelope is a
// cheap, typed rejection (errSealExpired); a signature that does not
// verify under the cluster key is errSealSignature.
func (n *Node) unseal(k *sealKind, root *xmldom.Node) (*xmldom.Node, error) {
	id, notAfter := root.AttrOr("id", ""), root.AttrOr("notAfter", "")
	doc, sigEl := root.Child("tnSession"), root.Child("signature")
	if root.Name != k.root || id == "" || doc == nil || sigEl == nil {
		return nil, fmt.Errorf("cluster: %s missing id, session or signature", k.root)
	}
	exp, err := time.Parse(time.RFC3339, notAfter)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s notAfter: %w", k.root, err)
	}
	if time.Now().After(exp) {
		return nil, fmt.Errorf("cluster: %s %w (notAfter %s)", k.root, errSealExpired, notAfter)
	}
	if n.keys == nil {
		return nil, fmt.Errorf("cluster: %s: %w", k.root, errSealNoKey)
	}
	sig, err := base64.StdEncoding.DecodeString(sigEl.Text())
	if err != nil {
		return nil, fmt.Errorf("cluster: %s signature not base64: %w", k.root, err)
	}
	if !ed25519.Verify(n.keys.Public, k.signedBytes(id, notAfter, doc.XML()), sig) {
		return nil, fmt.Errorf("cluster: %s %w", k.root, errSealSignature)
	}
	return doc, nil
}

// unsealFault maps an unseal error to the HTTP status and fault code
// its ingress handler answers with, and to the reason it is counted by.
func unsealFault(k *sealKind, err error) (status int, code, reason string) {
	switch {
	case errors.Is(err, errSealExpired):
		return http.StatusGone, k.fault + "-expired", "expired"
	case errors.Is(err, errSealSignature):
		return http.StatusForbidden, k.fault + "-signature", "signature"
	}
	return http.StatusBadRequest, "schema", "schema"
}
