package core

import (
	"vpm/internal/hashing"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
)

// The sequential arm (VerifierConfig.Sequential) runs Wald SPRT
// detectors concurrently with the per-epoch batch checks.
// The batch checks stay the ground truth — their verdict bytes are
// identical whether the arm is on or off — while the sequential arm
// accumulates per-packet evidence across epochs and can flag a lying
// link after a fraction of one epoch's packets.
//
// Determinism: the link and domain checks run on a worker pool, so
// evidence is first captured into a per-work-item seqCollector during
// the parallel sweep, then fed to the engine serially in work order
// once the sweep completes. The engine therefore sees the exact same
// stream at any pool size, and crossings land on the same packet
// (TestSequentialArmWorkerInvariance).

// seqBatch is one evidence batch bound for the engine: the detector
// scope, the evidence class, and the items in claims order.
type seqBatch struct {
	scope seqdetect.Scope
	class seqdetect.Class
	items []seqdetect.Evidence
}

// seqCollector buffers one work item's evidence batches during the
// parallel sweep. Each work item owns its collector exclusively, so no
// locking is needed.
type seqCollector struct {
	batches []seqBatch
}

// add appends one batch; empty batches are kept too — feeding zero
// items is harmless and keeps the feed loop trivial.
func (c *seqCollector) add(scope seqdetect.Scope, class seqdetect.Class, items []seqdetect.Evidence) {
	c.batches = append(c.batches, seqBatch{scope: scope, class: class, items: items})
}

// seqLinkScope names a link detector's scope.
func seqLinkScope(key packet.PathKey, up, down receipt.HOPID) seqdetect.Scope {
	return seqdetect.Scope{Key: key.String(), Up: uint32(up), Down: uint32(down)}
}

// seqDomainScope names a domain-segment bias detector's scope.
func seqDomainScope(key packet.PathKey, seg Segment) seqdetect.Scope {
	return seqdetect.Scope{
		Key:    key.String(),
		Up:     uint32(seg.Up),
		Down:   uint32(seg.Down),
		Domain: seg.Name,
	}
}

// seqMarkerKind classifies a domain delay sample for the bias
// detector: markers versus σ-samples, by the same hash-threshold rule
// the HOPs use (§3).
func seqMarkerKind(pid, mu uint64) seqdetect.Kind {
	if hashing.Exceeds(pid, mu) {
		return seqdetect.KindMarkerDelta
	}
	return seqdetect.KindOtherDelta
}

// feedSequential drains the work items' collectors into seq in work
// order, then closes the epoch and returns the epoch's new sequential
// verdicts; nil when the arm is off. Must be called from the single
// verification goroutine only.
func feedSequential(seq *seqdetect.Engine, epoch EpochID, cols []*seqCollector) []seqdetect.SeqVerdict {
	if seq == nil {
		return nil
	}
	for _, col := range cols {
		for _, b := range col.batches {
			seq.Observe(b.scope, b.class, b.items)
		}
	}
	return seq.EndEpoch(uint64(epoch))
}

// SeqVerdicts returns every sequential verdict the arm has emitted so
// far, in emission order; nil when the arm is off.
func (rv *RollingVerifier) SeqVerdicts() []seqdetect.SeqVerdict {
	if rv.seq == nil {
		return nil
	}
	return rv.seq.Verdicts()
}
