package core

import (
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// This file derives verifier layouts from a deployment's topology.
// Verification runs per (traffic key, route): each route is a linear
// HOP sequence, so the whole §4 link checking machinery applies route
// by route, each with its own layout. A HOP on a shared link files
// receipts for every traffic key crossing it, which the (HOP,
// key)-indexed ReceiptStore holds without change.

// RouteLayout derives the verifier layout of one route: the route's
// HOP sequence with alternating link and domain segments, explicit
// owning-domain names on every segment, and ECMP branch/merge domain
// segments marked Partial (the two HOPs see different subsets of the
// key's traffic there, so aggregate loss is not comparable across
// them).
func (d *Deployment) RouteLayout(ri int) Layout {
	topo := d.Topo
	rt := &topo.Routes[ri]
	hops := topo.RouteHOPs(ri)
	doms := topo.RouteDomains(ri)
	// Which of the key's routes cross each HOP — different sets at a
	// domain segment's two ends mean an ECMP branch or merge there.
	// The comparison is on the route *sets*, not their sizes: two HOPs
	// crossed by equally many but different routes (a domain that is
	// both a branch and a merge point) still see different packet
	// subsets.
	share := func(h receipt.HOPID) string {
		var sig []byte
		for _, rj := range topo.RoutesForKey(rt.Key) {
			for _, hh := range topo.RouteHOPs(rj) {
				if hh == h {
					sig = append(sig, byte(rj), byte(rj>>8))
					break
				}
			}
		}
		return string(sig) // RoutesForKey is ordered, so the signature is canonical
	}
	var l Layout
	l.HOPs = append(l.HOPs, hops...)
	for j := range rt.Links {
		from, to := topo.Domains[doms[j]].Name, topo.Domains[doms[j+1]].Name
		l.Segments = append(l.Segments, Segment{
			Kind:       LinkSegment,
			Up:         hops[2*j],
			Down:       hops[2*j+1],
			Name:       from + "-" + to,
			UpDomain:   from,
			DownDomain: to,
		})
		if j+1 < len(rt.Links) {
			name := topo.Domains[doms[j+1]].Name
			in, eg := hops[2*j+1], hops[2*j+2]
			l.Segments = append(l.Segments, Segment{
				Kind:       DomainSegment,
				Up:         in,
				Down:       eg,
				Name:       name,
				UpDomain:   name,
				DownDomain: name,
				Partial:    share(in) != share(eg),
			})
		}
	}
	return l
}

// RouteLayouts returns every route's layout, indexed like
// Topology.Routes.
func (d *Deployment) RouteLayouts() []Layout {
	out := make([]Layout, len(d.Topo.Routes))
	for i := range out {
		out[i] = d.RouteLayout(i)
	}
	return out
}

// KeyLayouts groups the route layouts by traffic key, in route-table
// order — the map RollingVerifier.SetKeyLayouts consumes for mesh
// verification, and the unit batch verification iterates: one
// verification sweep per (key, route layout). The map is built on
// first call and cached (layouts are immutable once built); do not
// mutate it.
func (d *Deployment) KeyLayouts() map[packet.PathKey][]Layout {
	d.keyLayoutsOnce.Do(func() {
		d.keyLayouts = d.KeyLayoutsFor(nil)
	})
	return d.keyLayouts
}

// KeyLayoutsFor builds the route-layout map for the keys keep admits
// (nil keeps every key) — the key-sliced verifier view a fleet shard
// uses: a verifier responsible for 1/Nth of the key space materializes
// layouts for its slice only, instead of the whole route table's.
// Each call builds a fresh map; for the unfiltered shared cache use
// KeyLayouts.
func (d *Deployment) KeyLayoutsFor(keep func(packet.PathKey) bool) map[packet.PathKey][]Layout {
	out := make(map[packet.PathKey][]Layout)
	for ri := range d.Topo.Routes {
		key := d.Topo.Routes[ri].Key
		if keep != nil && !keep(key) {
			continue
		}
		out[key] = append(out[key], d.RouteLayout(ri))
	}
	return out
}
