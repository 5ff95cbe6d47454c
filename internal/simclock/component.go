package simclock

// Component labels where a slice of simulated time is spent. Every clock
// advance carries one: Clock has no unlabelled advance, so a caller must
// name the component it charges. The taxonomy partitions a query's elapsed
// time for latency attribution: because the labels are applied at the
// clock itself, the per-component sums are equal to elapsed time by
// construction, not by reconciliation. A value outside the declared range
// renders and accumulates as CompOther, so even a computed label cannot
// break the sum.
type Component uint8

// The attribution components, in canonical rendering order: reports range
// over them in declaration order, so a new constant appears in every
// report without further edits.
const (
	// CompOther is the residual bucket: time not claimed by any specific
	// component (RAM device transfers, fixture advances). It is kept
	// explicit so Σattrib≡elapsed never needs a fudge term.
	CompOther Component = iota
	// CompHDDSeek is mechanical positioning: head travel plus rotational
	// latency on the backing drive. It dominates HDD latency, and the
	// paper's core argument prices it separately from transfer.
	CompHDDSeek
	// CompHDDTransfer is HDD command overhead plus media transfer; it
	// scales with request size where seek does not.
	CompHDDTransfer
	// CompSSDRead is flash read service time on either SSD role (cache or
	// index).
	CompSSDRead
	// CompSSDProgram is flash program/trim service time: the cost of cache
	// admission, the write-amplification side of caching on flash.
	CompSSDProgram
	// CompSSDEraseStall is foreground time spent waiting for the cache SSD
	// to drain background program/erase work before a read can start: the
	// GC-interference term.
	CompSSDEraseStall
	// CompCPUIntersect is engine CPU cost: postings decode and list
	// intersection, the CPU term that block compression trades against I/O.
	CompCPUIntersect
	// CompCacheBookkeeping is cache-manager L1 access cost (memory probes
	// and transfers).
	CompCacheBookkeeping
	// CompQueueWait is time a query spent queued behind other work before
	// (or instead of) executing: shard-queue delay in the serving layer,
	// and the whole latency of a coalesced (singleflight-follower) serve.
	// It is the only component born outside the device stack.
	CompQueueWait

	// NumComponents bounds arrays indexed by Component. It is not a
	// component.
	NumComponents
)

// componentNames are the stable wire names used in traces, profiles and
// reports. Index by Component.
var componentNames = [NumComponents]string{
	"other",
	"hdd_seek",
	"hdd_transfer",
	"ssd_read",
	"ssd_program",
	"ssd_erase_stall",
	"cpu_intersect",
	"cache_bookkeeping",
	"queue_wait",
}

// String returns the component's stable wire name.
func (c Component) String() string {
	if c < NumComponents {
		return componentNames[c]
	}
	return "other"
}

// ComponentByName maps a wire name back to its Component; ok is false for
// unknown names.
func ComponentByName(name string) (Component, bool) {
	for i, n := range componentNames {
		if n == name {
			return Component(i), true
		}
	}
	return CompOther, false
}
