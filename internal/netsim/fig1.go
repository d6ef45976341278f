package netsim

import "fmt"

// This file builds the paper's running example (Figure 1): domain S
// sends to domain D via transit domains L, X and N; HOPs are numbered
// 1..8 along the path, with X's ingress and egress at HOPs 4 and 5.

// Fig1 names the domains of the paper's example topology.
var Fig1DomainNames = []string{"S", "L", "X", "N", "D"}

// Default healthy-path parameters.
const (
	// DefaultLinkDelayNS is the inter-domain link propagation delay.
	DefaultLinkDelayNS = 1_000_000 // 1 ms
	// DefaultLinkJitterNS is the per-packet link jitter.
	DefaultLinkJitterNS = 100_000 // 0.1 ms
	// DefaultMaxDiffNS is the advertised timestamp bound per link; it
	// comfortably covers delay + jitter + sane clock skews.
	DefaultMaxDiffNS = 3_000_000 // 3 ms
	// DefaultBaseDelayNS is the uncongested intra-domain transit time.
	DefaultBaseDelayNS = 500_000 // 0.5 ms
	// DefaultReorderJitterNS reorders packets that arrive within a
	// fraction of a millisecond of each other, the paper's empirical
	// reordering regime (§6.3, reference [10]).
	DefaultReorderJitterNS = 200_000 // 0.2 ms
)

// Fig1Path builds the five-domain topology of Figure 1 with healthy
// defaults: no loss anywhere, constant transit delays, mild jitter.
// It is a chain with one default route, so every packet crosses HOPs
// 1..8 whatever its key. Experiments then perturb individual domains
// (e.g. congest X, add loss within X) by mutating the returned
// topology before running it.
func Fig1Path(seed uint64) *Topology { return chain(seed, Fig1DomainNames) }

// LinearPath builds an nDomains-long chain with the same healthy
// defaults as Fig1Path: stub source S, transit domains T1..T(n-2),
// stub destination D. nDomains = 5 reproduces Figure 1's shape (8
// HOPs); larger values scale the verification workload — e.g. 9
// domains give the 16-HOP scenario the verify benchmarks use.
func LinearPath(seed uint64, nDomains int) *Topology {
	if nDomains < 2 {
		nDomains = 2
	}
	names := make([]string, nDomains)
	for i := range names {
		names[i] = fmt.Sprintf("T%d", i)
	}
	names[0], names[nDomains-1] = "S", "D"
	return chain(seed, names)
}

// chain links the named domains in order, domain i to i+1 over link
// i, and routes the default key along the whole chain. The HOPs run
// 1..2(n-1) in path order: the origin's egress is HOP 1, transit
// domain i owns ingress 2i and egress 2i+1, the destination's ingress
// is the last.
func chain(seed uint64, names []string) *Topology {
	t := &Topology{Seed: seed}
	var route Route
	for i, name := range names {
		t.Domains = append(t.Domains, healthyDomain(name))
		if i > 0 {
			route.Links = append(route.Links, t.addLink(i-1, i))
		}
	}
	t.Routes = []Route{route}
	return t
}
