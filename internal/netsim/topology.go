// Topology is the simulator's network: an arbitrary directed domain
// graph — the shape real inter-domain measurement platforms exercise,
// where one backbone link carries traffic for many origin-prefix paths
// and blame must localize despite the sharing. A linear path such as
// Figure 1's is the chain with one default route.
//
// The model keeps the paper's HOP semantics: a HOP is a hand-off point
// at a domain's interface onto one inter-domain link, so every directed
// link contributes exactly two HOPs — the sending domain's egress onto
// the link and the receiving domain's ingress off it. Two consequences
// do most of the work downstream:
//
//   - Sharing is structural. Every route that traverses link i crosses
//     the same (egress, ingress) HOP pair, so one collector per HOP
//     naturally files receipts for many traffic keys, and the indexed
//     (HOP, key) receipt store needs no changes to hold a mesh.
//   - MaxDiff is unambiguous. A HOP reports about exactly the link it
//     sits on, so the bound it advertises is always its own link's.
//
// Multipath (ECMP) is a traffic key with several routes: the runner
// hash-splits the key's packets across them by packet digest, the way
// a router's flow hash would. Routes of one key may share their first
// and last legs (the realistic ECMP shape) — at a HOP where the key's
// routes branch or merge, the stamped PathID records prev/next HOP 0,
// the same "path ends here" convention a route's first and last HOPs
// use.
package netsim

import (
	"fmt"
	"sync"

	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// TopoLink is one directed inter-domain link of a topology. A
// bidirectional adjacency is two TopoLinks, one per direction, each
// with its own delay/loss/queue model and its own HOP pair.
type TopoLink struct {
	// From and To are domain indices into Topology.Domains.
	From, To int
	// LinkSpec models the link (propagation delay, jitter, advertised
	// MaxDiff, loss process).
	LinkSpec
}

// Route is one HOP sequence a traffic key follows through the
// topology: consecutive directed links from an origin domain to a
// destination domain. Several routes may carry the same Key — that is
// ECMP multipath, hash-split per packet by the runner.
type Route struct {
	// Key is the origin-prefix pair routed along this sequence. The
	// zero key (0.0.0.0/0 → 0.0.0.0/0) makes a default route: it
	// carries every packet whose key has no route of its own.
	Key packet.PathKey
	// Links are indices into Topology.Links; Links[i].To must equal
	// Links[i+1].From.
	Links []int
}

// Topology is a directed domain graph with a route table. Its
// DomainSpecs and LinkSpecs carry every intra-domain and link model
// (loss, congestion queues, skew, preferential treatment); the
// stateful loss and queue processes attached to them are consulted in
// global packet send order, shared by every route crossing them.
type Topology struct {
	Domains []DomainSpec
	Links   []TopoLink
	Routes  []Route
	// Seed drives packet digests, ECMP hash-splitting and all
	// simulation randomness.
	Seed uint64

	// idx caches the per-key route lists, built once on first routing
	// query (RoutesForKey, PathIDFor, a runner). Without it every
	// per-key query scans the whole route table — quadratic once a
	// fleet-scale table holds a million keys. Finish building Routes
	// before querying.
	idxOnce sync.Once
	idx     map[packet.PathKey][]int
}

// Validate checks structural invariants: link endpoints in range,
// routes made of consecutive in-range links, and no route crossing the
// same link or domain twice (a forwarding loop).
func (t *Topology) Validate() error {
	if len(t.Domains) < 2 {
		return fmt.Errorf("netsim: topology needs at least 2 domains, have %d", len(t.Domains))
	}
	if len(t.Links) == 0 {
		return fmt.Errorf("netsim: topology has no links")
	}
	for i, l := range t.Links {
		if l.From < 0 || l.From >= len(t.Domains) || l.To < 0 || l.To >= len(t.Domains) {
			return fmt.Errorf("netsim: link %d connects out-of-range domains %d->%d", i, l.From, l.To)
		}
		if l.From == l.To {
			return fmt.Errorf("netsim: link %d is a self-loop on domain %d", i, l.From)
		}
	}
	for ri, r := range t.Routes {
		if len(r.Links) == 0 {
			return fmt.Errorf("netsim: route %d has no links", ri)
		}
		seenLink := make(map[int]bool, len(r.Links))
		seenDom := make(map[int]bool, len(r.Links)+1)
		for j, li := range r.Links {
			if li < 0 || li >= len(t.Links) {
				return fmt.Errorf("netsim: route %d references link %d out of range", ri, li)
			}
			if seenLink[li] {
				return fmt.Errorf("netsim: route %d crosses link %d twice", ri, li)
			}
			seenLink[li] = true
			if j == 0 {
				seenDom[t.Links[li].From] = true
			} else if t.Links[r.Links[j-1]].To != t.Links[li].From {
				return fmt.Errorf("netsim: route %d is not contiguous at hop %d (link %d ends at domain %d, link %d starts at %d)",
					ri, j, r.Links[j-1], t.Links[r.Links[j-1]].To, li, t.Links[li].From)
			}
			if seenDom[t.Links[li].To] {
				return fmt.Errorf("netsim: route %d visits domain %d twice", ri, t.Links[li].To)
			}
			seenDom[t.Links[li].To] = true
		}
	}
	return nil
}

// NumHOPs returns the number of HOPs in the topology: two per directed
// link. HOP IDs are 1-based and contiguous.
func (t *Topology) NumHOPs() int { return 2 * len(t.Links) }

// LinkHOPs returns the HOP pair of directed link i: the sending
// domain's egress HOP onto the link and the receiving domain's ingress
// HOP off it.
func (t *Topology) LinkHOPs(i int) (egress, ingress receipt.HOPID) {
	return receipt.HOPID(2*i + 1), receipt.HOPID(2*i + 2)
}

// HOPLink returns the directed link a HOP sits on and whether the HOP
// is the link's egress (sending) side.
func (t *Topology) HOPLink(h receipt.HOPID) (link int, egressSide bool) {
	return int(h-1) / 2, h%2 == 1
}

// HOPDomain returns the index of the domain owning HOP h.
func (t *Topology) HOPDomain(h receipt.HOPID) int {
	li, eg := t.HOPLink(h)
	if eg {
		return t.Links[li].From
	}
	return t.Links[li].To
}

// DomainIndex returns the index of the named domain, or -1.
func (t *Topology) DomainIndex(name string) int {
	for i := range t.Domains {
		if t.Domains[i].Name == name {
			return i
		}
	}
	return -1
}

// RouteHOPs returns route r's HOP sequence in traversal order: the
// origin's egress onto the first link, then each transit domain's
// ingress and egress pair, then the destination's ingress off the last
// link — 2·len(links) HOPs.
func (t *Topology) RouteHOPs(r int) []receipt.HOPID {
	rt := &t.Routes[r]
	out := make([]receipt.HOPID, 0, 2*len(rt.Links))
	for _, li := range rt.Links {
		eg, in := t.LinkHOPs(li)
		out = append(out, eg, in)
	}
	return out
}

// RouteDomains returns route r's domain index sequence: origin,
// transits, destination.
func (t *Topology) RouteDomains(r int) []int {
	rt := &t.Routes[r]
	out := make([]int, 0, len(rt.Links)+1)
	out = append(out, t.Links[rt.Links[0]].From)
	for _, li := range rt.Links {
		out = append(out, t.Links[li].To)
	}
	return out
}

// RoutesForKey returns the indices of the routes carrying key, in
// route-table order — one for single-path keys, several for ECMP. A
// key with no route of its own gets the default routes (see Route.Key),
// none on a topology without them. The first call builds a per-key
// index, so the route table must be complete by then.
func (t *Topology) RoutesForKey(key packet.PathKey) []int {
	t.idxOnce.Do(func() {
		t.idx = make(map[packet.PathKey][]int, len(t.Routes))
		for i := range t.Routes {
			t.idx[t.Routes[i].Key] = append(t.idx[t.Routes[i].Key], i)
		}
	})
	if rs := t.idx[key]; len(rs) > 0 {
		return rs
	}
	return t.idx[packet.PathKey{}]
}

// Keys returns the distinct traffic keys in the route table, in
// first-appearance order.
func (t *Topology) Keys() []packet.PathKey {
	seen := make(map[packet.PathKey]bool)
	var out []packet.PathKey
	for i := range t.Routes {
		if !seen[t.Routes[i].Key] {
			seen[t.Routes[i].Key] = true
			out = append(out, t.Routes[i].Key)
		}
	}
	return out
}

// PathIDFor builds the PathID HOP h stamps on its receipts for traffic
// key: the previous and next HOPs along the key's route(s) through h —
// 0 when the path ends there, or when the key's ECMP routes branch or
// merge at h so no single neighbor exists — and the MaxDiff of h's own
// link (an ingress HOP reports about its upstream link, an egress HOP
// about its downstream link; in this numbering both are the HOP's own
// link). Must agree for every route of the key through h, which it
// does by construction: collectors stamp one PathID per (HOP, key).
func (t *Topology) PathIDFor(key packet.PathKey, h receipt.HOPID) receipt.PathID {
	li, _ := t.HOPLink(h)
	id := receipt.PathID{Key: key, MaxDiffNS: t.Links[li].MaxDiffNS}
	// "First occurrence" is tracked explicitly: HOPID 0 is a valid
	// neighbor value ("path ends here"), so using 0 as the unset
	// sentinel would make ambiguity detection depend on route-table
	// order (a route ending at h seen before a route transiting h
	// would let the transit neighbor overwrite the legitimate 0).
	var prev, next receipt.HOPID
	first := true
	prevAmbig, nextAmbig := false, false
	for _, ri := range t.RoutesForKey(key) {
		hops := t.RouteHOPs(ri)
		for pos, hh := range hops {
			if hh != h {
				continue
			}
			var p, n receipt.HOPID
			if pos > 0 {
				p = hops[pos-1]
			}
			if pos < len(hops)-1 {
				n = hops[pos+1]
			}
			if first {
				prev, next = p, n
				first = false
				continue
			}
			if prev != p {
				prevAmbig = true
			}
			if next != n {
				nextAmbig = true
			}
		}
	}
	if !prevAmbig {
		id.PrevHOP = prev
	}
	if !nextAmbig {
		id.NextHOP = next
	}
	return id
}

// MaxFanIn returns the largest number of distinct traffic keys sharing
// one directed link — the topology's sharing degree.
func (t *Topology) MaxFanIn() int {
	max := 0
	for _, n := range t.keysPerLink() {
		if n > max {
			max = n
		}
	}
	return max
}

// SharedLinks returns the indices of links carrying two or more
// distinct traffic keys, in link order.
func (t *Topology) SharedLinks() []int {
	var out []int
	for li, n := range t.keysPerLink() {
		if n >= 2 {
			out = append(out, li)
		}
	}
	return out
}

// keysPerLink counts the distinct traffic keys routed over each link,
// indexed like Links.
func (t *Topology) keysPerLink() []int {
	keys := make([]map[packet.PathKey]bool, len(t.Links))
	for ri := range t.Routes {
		for _, li := range t.Routes[ri].Links {
			if keys[li] == nil {
				keys[li] = make(map[packet.PathKey]bool)
			}
			keys[li][t.Routes[ri].Key] = true
		}
	}
	out := make([]int, len(keys))
	for li, m := range keys {
		out[li] = len(m)
	}
	return out
}
