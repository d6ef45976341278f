package core

import (
	"encoding/binary"

	"vpm/internal/hashing"
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// pathKeyHash hashes a PathKey for shard selection and for the
// per-shard path-state memo. It packs both prefix addresses into one
// word and folds the prefix lengths in before mixing.
func pathKeyHash(key packet.PathKey) uint64 {
	src := uint64(binary.BigEndian.Uint32(key.Src.Addr[:]))
	dst := uint64(binary.BigEndian.Uint32(key.Dst.Addr[:]))
	bits := uint64(key.Src.Bits)<<6 | uint64(key.Dst.Bits)
	return hashing.Mix64((src<<32 | dst) ^ bits*0x9e3779b97f4a7c15)
}

// classifyCacheSize is the dispatcher's direct-mapped classification
// cache: it short-circuits the two longest-prefix-match lookups for
// recently seen (source, destination) address pairs. Flows repeat
// addresses for many packets, but a direct-mapped cache lives and dies
// by conflict misses: with a few hundred live pairs, 512 slots still
// evict hot pairs into each other's slots often enough to put the LPM
// walk back on the per-packet profile. 4096 slots (~256 KiB) keeps the
// conflict rate negligible at working sets into the low thousands of
// pairs. Must be a power of two.
const classifyCacheSize = 4096

// classifyEntry caches one address pair's classification outcome.
type classifyEntry struct {
	addrs uint64 // src<<32 | dst
	valid bool
	ok    bool // false: pair matched no prefix (still cached)
	key   packet.PathKey
	hash  uint64 // pathKeyHash(key), valid only when ok
	shard uint32
}

// classify resolves a packet's PathKey, shard and path hash through
// the direct-mapped cache, falling back to the prefix table's
// longest-prefix match on a miss.
func (c *Collector) classify(pkt *packet.Packet) (key packet.PathKey, hash uint64, sh uint32, ok bool) {
	addrs := uint64(binary.BigEndian.Uint32(pkt.Src[:]))<<32 | uint64(binary.BigEndian.Uint32(pkt.Dst[:]))
	e := &c.cache[hashing.Mix64(addrs)&(classifyCacheSize-1)]
	if e.valid && e.addrs == addrs {
		return e.key, e.hash, e.shard, e.ok
	}
	key, ok = c.cfg.Table.Classify(pkt)
	e.addrs, e.valid, e.ok = addrs, true, ok
	if ok {
		hash = pathKeyHash(key)
		sh = uint32(hash % uint64(len(c.shards)))
		e.key, e.hash, e.shard = key, hash, sh
	}
	return key, hash, sh, ok
}

// stateMemoSize is each shard's direct-mapped PathKey → *pathState
// memo, skipping the path-map lookup for runs of hot paths. Must be a
// power of two.
const stateMemoSize = 64

// stateMemoEntry caches one shard-local path-state lookup.
type stateMemoEntry struct {
	key   packet.PathKey
	state *pathState
}

// shardRun is a maximal run of consecutive same-path observations in
// a shard's sub-batch: the dispatcher run-length-encodes while
// partitioning, so the shard worker feeds whole runs to the batch
// hooks without per-packet key comparisons or copies.
type shardRun struct {
	key  packet.PathKey
	hash uint64 // pathKeyHash(key), for the memo index
	n    int
}

// shard is one lock-free slice of a Collector: its own path
// map, samplers and partitioner state, touched only by the goroutine
// currently processing this shard's sub-batch.
type shard struct {
	cfg     *CollectorConfig
	backend *backend
	paths   map[packet.PathKey]*pathState
	memo    [stateMemoSize]stateMemoEntry

	// Reusable sub-batch buffers, filled by the dispatcher: the
	// observations in shard-arrival order plus their run-length
	// encoding by path.
	runs []shardRun
	recs []receipt.SampleRecord
}

// stateFor returns (creating on first use) the shard's state for key.
func (s *shard) stateFor(key packet.PathKey, hash uint64) *pathState {
	m := &s.memo[hash&(stateMemoSize-1)]
	if m.state != nil && m.key == key {
		return m.state
	}
	st, ok := s.paths[key]
	if !ok {
		st = s.backend.newPathState(s.cfg, key)
		s.paths[key] = st
	}
	m.key, m.state = key, st
	return st
}

// process runs the shard's pending sub-batch through Algorithm 1 and
// Algorithm 2, feeding each same-path run to the batch hooks so
// per-packet dispatch is amortized. Observations stay in arrival
// order, so the shard's per-path state evolves exactly as it would
// under per-packet Observe.
func (s *shard) process() {
	recs := s.recs
	off := 0
	for i := range s.runs {
		r := &s.runs[i]
		st := s.stateFor(r.key, r.hash)
		st.touched = true
		run := recs[off : off+r.n]
		st.part.ObserveBatch(run)
		st.sampler.ObserveBatch(run)
		off += r.n
	}
	s.runs = s.runs[:0]
	s.recs = recs[:0]
}
