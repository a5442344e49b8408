package journal

import "cmp"

// Pos is a replication position: a durable sequence number qualified by
// the leader epoch of the history it belongs to. A seq is only
// meaningful within one epoch — after a failover, a fenced leader's seq
// 900 belongs to a dead history and does not precede the new leader's
// seq 100 in any useful sense — so positions on different nodes are
// ordered only through Compare, never by their seqs alone.
type Pos struct {
	// Epoch is the leader epoch: the fencing generation of the history,
	// bumped on every promotion.
	Epoch uint64
	// Seq is the journal sequence number within that history.
	Seq uint64
}

// Compare returns -1, 0 or +1 as p is behind, equal to or ahead of q.
// The epoch decides first; the seq breaks ties only within one epoch.
func (p Pos) Compare(q Pos) int {
	if c := cmp.Compare(p.Epoch, q.Epoch); c != 0 {
		return c
	}
	return cmp.Compare(p.Seq, q.Seq)
}
