package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"dsteiner/internal/graph"
)

// Solve is the coordinator's per-query broadcast: run the six solver phases
// for the canonical (validated, sorted, duplicate-free) seed set.
type Solve struct {
	QueryID uint64
	Seeds   []graph.VID
}

// EncodeSolve appends a FrameSolve payload.
func EncodeSolve(dst []byte, s Solve) []byte {
	dst = append(dst, FrameSolve)
	dst = AppendUvarint(dst, s.QueryID)
	return AppendVIDs(dst, s.Seeds)
}

// DecodeSolve decodes a FrameSolve body.
func DecodeSolve(body []byte) (Solve, error) {
	d := NewDec(body)
	s := Solve{QueryID: d.Uvarint(), Seeds: d.VIDs()}
	return s, d.finish()
}

// SolveSpec is the v3 mode-carrying query broadcast (core.QuerySpec on the
// wire): Mode 0 is a tree query over Seeds, mode 1 a Steiner Forest query
// over Groups, mode 2 a prize-collecting query over Seeds with index-
// parallel Penalties. The coordinator ships the canonical form; workers
// flatten it deterministically, so dense terminal indices agree fleet-wide.
type SolveSpec struct {
	QueryID   uint64
	Mode      uint8
	Seeds     []graph.VID
	Penalties []int64
	Groups    [][]graph.VID
}

// EncodeSolveSpec appends a FrameSolveSpec payload (wire v3+ sessions only).
func EncodeSolveSpec(dst []byte, s SolveSpec) []byte {
	dst = append(dst, FrameSolveSpec)
	dst = AppendUvarint(dst, s.QueryID)
	dst = append(dst, s.Mode)
	dst = AppendVIDs(dst, s.Seeds)
	dst = AppendInt64s(dst, s.Penalties)
	dst = AppendUvarint(dst, uint64(len(s.Groups)))
	for _, g := range s.Groups {
		dst = AppendVIDs(dst, g)
	}
	return dst
}

// DecodeSolveSpec decodes a FrameSolveSpec body.
func DecodeSolveSpec(body []byte) (SolveSpec, error) {
	d := NewDec(body)
	s := SolveSpec{
		QueryID:   d.Uvarint(),
		Mode:      d.Byte(),
		Seeds:     d.VIDs(),
		Penalties: d.Int64s(),
	}
	nGroups := d.count(1, "spec groups")
	for i := 0; i < nGroups && d.err == nil; i++ {
		s.Groups = append(s.Groups, d.VIDs())
	}
	return s, d.finish()
}

// EdgeRec is one Steiner-tree edge on the wire.
type EdgeRec struct {
	U, V graph.VID
	W    uint32
}

// PhaseRec is one phase's statistics on the wire (core.PhaseStat).
type PhaseRec struct {
	Name        string
	Seconds     float64
	Sent        int64
	Processed   int64
	MaxRankWork int64
}

// SolveResult is the wire form of the solver-output parts of core.Result,
// produced on the worker hosting rank 0 and shipped back inside
// WorkerDone. Memory accounting and validation happen coordinator-side.
type SolveResult struct {
	Tree             []EdgeRec
	TotalDistance    int64
	Phases           []PhaseRec
	DistGraphEdges   int
	MSTRounds        int
	CollectiveChunks int
}

func appendSolveResult(dst []byte, r SolveResult) []byte {
	dst = AppendUvarint(dst, uint64(len(r.Tree)))
	for _, e := range r.Tree {
		dst = AppendUvarint(dst, uint64(uint32(e.U)))
		dst = AppendUvarint(dst, uint64(uint32(e.V)))
		dst = AppendUvarint(dst, uint64(e.W))
	}
	dst = AppendVarint(dst, r.TotalDistance)
	dst = AppendUvarint(dst, uint64(len(r.Phases)))
	for _, p := range r.Phases {
		dst = AppendString(dst, p.Name)
		dst = appendFloat64(dst, p.Seconds)
		dst = AppendVarint(dst, p.Sent)
		dst = AppendVarint(dst, p.Processed)
		dst = AppendVarint(dst, p.MaxRankWork)
	}
	dst = AppendUvarint(dst, uint64(r.DistGraphEdges))
	dst = AppendUvarint(dst, uint64(r.MSTRounds))
	dst = AppendUvarint(dst, uint64(r.CollectiveChunks))
	return dst
}

func decodeSolveResult(d *Dec) SolveResult {
	var r SolveResult
	nTree := d.count(3, "tree edges") // ≥ 3 bytes per edge
	for i := 0; i < nTree && d.err == nil; i++ {
		r.Tree = append(r.Tree, EdgeRec{
			U: graph.VID(int32(d.Uvarint())),
			V: graph.VID(int32(d.Uvarint())),
			W: uint32(d.Uvarint()),
		})
	}
	r.TotalDistance = d.Varint()
	nPhases := d.Int()
	if d.err == nil && nPhases > d.Len() {
		d.err = fmt.Errorf("%w: phase count", ErrCorrupt)
	}
	for i := 0; i < nPhases && d.err == nil; i++ {
		r.Phases = append(r.Phases, PhaseRec{
			Name:        d.String(),
			Seconds:     d.Float64(),
			Sent:        d.Varint(),
			Processed:   d.Varint(),
			MaxRankWork: d.Varint(),
		})
	}
	r.DistGraphEdges = d.Int()
	r.MSTRounds = d.Int()
	r.CollectiveChunks = d.Int()
	return r
}

// NetStats are a transport's cumulative traffic counters; WorkerDone
// carries per-query deltas so the coordinator can attribute wire cost to
// individual queries.
type NetStats struct {
	FramesOut int64
	FramesIn  int64
	BytesOut  int64
	BytesIn   int64
	EncodeNs  int64
	DecodeNs  int64

	// v2 additions: compacted-batch savings and the peer flush-size
	// histogram. These ride in a version-gated tail of WorkerDone, never
	// in the frozen v1 NetStats block.
	CompactionSavedBytes int64
	FlushesSmall         int64 // flushes < 4 KiB
	FlushesMid           int64 // flushes in [4 KiB, 256 KiB)
	FlushesLarge         int64 // flushes ≥ 256 KiB
}

// Add accumulates o into s.
func (s *NetStats) Add(o NetStats) {
	s.FramesOut += o.FramesOut
	s.FramesIn += o.FramesIn
	s.BytesOut += o.BytesOut
	s.BytesIn += o.BytesIn
	s.EncodeNs += o.EncodeNs
	s.DecodeNs += o.DecodeNs
	s.CompactionSavedBytes += o.CompactionSavedBytes
	s.FlushesSmall += o.FlushesSmall
	s.FlushesMid += o.FlushesMid
	s.FlushesLarge += o.FlushesLarge
}

// Sub returns s − o (for per-query deltas from cumulative counters).
func (s NetStats) Sub(o NetStats) NetStats {
	return NetStats{
		FramesOut:            s.FramesOut - o.FramesOut,
		FramesIn:             s.FramesIn - o.FramesIn,
		BytesOut:             s.BytesOut - o.BytesOut,
		BytesIn:              s.BytesIn - o.BytesIn,
		EncodeNs:             s.EncodeNs - o.EncodeNs,
		DecodeNs:             s.DecodeNs - o.DecodeNs,
		CompactionSavedBytes: s.CompactionSavedBytes - o.CompactionSavedBytes,
		FlushesSmall:         s.FlushesSmall - o.FlushesSmall,
		FlushesMid:           s.FlushesMid - o.FlushesMid,
		FlushesLarge:         s.FlushesLarge - o.FlushesLarge,
	}
}

func appendNetStats(dst []byte, s NetStats) []byte {
	dst = AppendVarint(dst, s.FramesOut)
	dst = AppendVarint(dst, s.FramesIn)
	dst = AppendVarint(dst, s.BytesOut)
	dst = AppendVarint(dst, s.BytesIn)
	dst = AppendVarint(dst, s.EncodeNs)
	dst = AppendVarint(dst, s.DecodeNs)
	return dst
}

func decodeNetStats(d *Dec) NetStats {
	return NetStats{
		FramesOut: d.Varint(),
		FramesIn:  d.Varint(),
		BytesOut:  d.Varint(),
		BytesIn:   d.Varint(),
		EncodeNs:  d.Varint(),
		DecodeNs:  d.Varint(),
	}
}

// WorkerDone closes one query on one worker: the per-hosted-rank cross-cell
// table sizes (coordinator-side memory accounting), message/suppression
// counter deltas, the transport traffic delta, and — from the worker
// hosting rank 0 — the encoded Result. Err carries rank 0's solve error
// (disconnected seeds), empty on success.
type WorkerDone struct {
	QueryID    uint64
	Err        string
	TableLens  []int64 // len(E_N table) per hosted rank, rank order
	Sent       int64   // visitor messages sent by this process
	Processed  int64   // visit() calls on this process
	Suppressed int64   // delegate broadcasts suppressed by the changed-since filter
	Batched    int64   // delegate broadcasts released by superstep outbox flushes
	Coalesced  int64   // delegate offers absorbed into a staged outbox entry
	Net        NetStats
	HasResult  bool
	Result     SolveResult
	// Skipped lists the terminals a prize-mode query paid to leave out
	// (set by the worker hosting rank 0). It rides in the v3 tail; on
	// v1/v2 sessions — which only ever run tree queries — it is always
	// empty and never encoded.
	Skipped []graph.VID
	// v4 tail (set by the worker hosting rank 0): whether phase 4 ran the
	// fragment merge, and the query's phase-3/4 cross-table wire bytes and
	// fragment-exchange record count.
	MSTFragment     bool
	CrossTableBytes int64
	FragmentMsgs    int64
}

// EncodeWorkerDone appends a FrameWorkerDone payload. wireVer is the
// session's negotiated version: on v1 sessions the frame stops after the
// Result exactly as v1 coordinators expect; on v2 sessions a tail carries
// the outbox counters and the NetStats v2 additions. The tail is
// decode-tolerant (absent ⇒ zero), mirroring Setup.WireVersion.
func EncodeWorkerDone(dst []byte, w WorkerDone, wireVer uint32) []byte {
	dst = append(dst, FrameWorkerDone)
	dst = AppendUvarint(dst, w.QueryID)
	dst = AppendString(dst, w.Err)
	dst = AppendInt64s(dst, w.TableLens)
	dst = AppendVarint(dst, w.Sent)
	dst = AppendVarint(dst, w.Processed)
	dst = AppendVarint(dst, w.Suppressed)
	dst = appendNetStats(dst, w.Net)
	dst = appendBool(dst, w.HasResult)
	if w.HasResult {
		dst = appendSolveResult(dst, w.Result)
	}
	if wireVer >= 2 {
		dst = AppendVarint(dst, w.Batched)
		dst = AppendVarint(dst, w.Coalesced)
		dst = AppendVarint(dst, w.Net.CompactionSavedBytes)
		dst = AppendVarint(dst, w.Net.FlushesSmall)
		dst = AppendVarint(dst, w.Net.FlushesMid)
		dst = AppendVarint(dst, w.Net.FlushesLarge)
	}
	if wireVer >= 3 {
		dst = AppendVIDs(dst, w.Skipped)
	}
	if wireVer >= 4 {
		dst = appendBool(dst, w.MSTFragment)
		dst = AppendVarint(dst, w.CrossTableBytes)
		dst = AppendVarint(dst, w.FragmentMsgs)
	}
	return dst
}

// DecodeWorkerDone decodes a FrameWorkerDone body.
func DecodeWorkerDone(body []byte) (WorkerDone, error) {
	d := NewDec(body)
	var w WorkerDone
	w.QueryID = d.Uvarint()
	w.Err = d.String()
	w.TableLens = d.Int64s()
	w.Sent = d.Varint()
	w.Processed = d.Varint()
	w.Suppressed = d.Varint()
	w.Net = decodeNetStats(d)
	w.HasResult = d.Bool()
	if w.HasResult {
		w.Result = decodeSolveResult(d)
	}
	// v2 tail, absent on v1 sessions.
	if d.err == nil && d.Len() > 0 {
		w.Batched = d.Varint()
		w.Coalesced = d.Varint()
		w.Net.CompactionSavedBytes = d.Varint()
		w.Net.FlushesSmall = d.Varint()
		w.Net.FlushesMid = d.Varint()
		w.Net.FlushesLarge = d.Varint()
	}
	// v3 tail, absent on v1/v2 sessions.
	if d.err == nil && d.Len() > 0 {
		w.Skipped = d.VIDs()
	}
	// v4 tail, absent on v1–v3 sessions.
	if d.err == nil && d.Len() > 0 {
		w.MSTFragment = d.Bool()
		w.CrossTableBytes = d.Varint()
		w.FragmentMsgs = d.Varint()
	}
	return w, d.finish()
}

// EncodeEdges encodes a []graph.Edge blob for the final tree gather
// (rank-local tree fragments collected via the OpGather collective).
func EncodeEdges(dst []byte, edges []graph.Edge) []byte {
	dst = AppendUvarint(dst, uint64(len(edges)))
	for _, e := range edges {
		dst = AppendUvarint(dst, uint64(uint32(e.U)))
		dst = AppendUvarint(dst, uint64(uint32(e.V)))
		dst = AppendUvarint(dst, uint64(e.W))
	}
	return dst
}

// DecodeEdges decodes an EncodeEdges blob, appending to out.
func DecodeEdges(blob []byte, out []graph.Edge) ([]graph.Edge, error) {
	d := NewDec(blob)
	n := d.count(3, "edge blob")
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, graph.Edge{
			U: graph.VID(int32(d.Uvarint())),
			V: graph.VID(int32(d.Uvarint())),
			W: uint32(d.Uvarint()),
		})
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return out, nil
}

func appendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}
