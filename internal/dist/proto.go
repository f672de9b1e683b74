// Wire protocol of the distributed miner. Four message types flow over a
// worker link (see Transport), all built from the internal/wire/framing
// primitives (magic + version + length + body + FNV-1a checksum, all
// integers varints):
//
//	coordinator → worker   job frame "SVJB": shard, docOffset, pattern
//	                       version (0 = the default, V4), telemetry
//	                       (0/1), docCount, then ⟨url, domain, author,
//	                       text⟩ per document. The job is the attempt's
//	                       whole configuration: the worker mines with its
//	                       version and records telemetry only if asked.
//	                       Nothing follows it, and the stream is never
//	                       half-closed: a worker whose input ends knows
//	                       its coordinator is gone.
//	worker → coordinator   heartbeat frame "SVHB" (uvarint shard), on
//	                       every transport, on a ticker between the job
//	                       and the result. readShardResult — the one
//	                       loop that reads the result header — checks
//	                       each against the attempt's shard, counts it as
//	                       liveness and reads on.
//	worker → coordinator   result header frame "SVSR": shard, consumed,
//	                       sentences, quarantine count, ⟨doc, reason⟩
//	                       per record — followed by one store frame
//	                       "SVWS" (the evidence delta, wire.EncodeStore)
//	worker → coordinator   telemetry frame "SVTM" (obs package: metric
//	                       snapshot, spans, clock anchors of this one
//	                       attempt), after the store frame, exactly when
//	                       the job asked for it.
//
// Protocol state machine (one worker attempt):
//
//	IDLE --job frame--> MINING --result+store(+telemetry), exit 0--> DONE
//	                      |  \-- crash / kill ------------------------> LOST
//	                      \---- ctx cancelled, exit nonzero ----------> LOST
//
// The self-healing scheduler layers a shard-level retry loop on top: a
// LOST or deadline-expired attempt moves the shard to RETRYING, and a
// fresh worker (after seeded-jitter backoff) replays the protocol from
// IDLE:
//
//	PENDING -> MINING --commit--------------------------------> DONE
//	             |  \-- attempt lost/expired --> RETRYING --> MINING ...
//	             \---- retry budget exhausted ----------------> LOST
//
// A LOST worker never writes a partial result: the result frames are
// written only after extraction completes, so the coordinator either
// receives a complete, checksummed shard delta or a read error — never a
// torn one. That all-or-nothing attempt commit, combined with the
// coordinator's exactly-once shard commit cell (a late result from an
// abandoned attempt is discarded as a duplicate once any attempt has
// committed), is what makes a run with transient faults bit-identical to
// the batch run, and a budget-exhausted run exactly the batch result
// minus the lost shard's documents. Telemetry rides strictly after the
// commit point: a missing, broken or rejected telemetry frame can degrade
// observability (a rejection counter and a /cluster note) but can never
// fail, or un-commit, the shard.
package dist

import (
	"fmt"
	"io"
	"math"

	"repro/internal/corpus"
	"repro/internal/evidence"
	"repro/internal/extract"
	"repro/internal/pipeline"
	"repro/internal/wire"
	"repro/internal/wire/framing"
)

// Frame magics of the coordinator/worker protocol.
const (
	jobMagic       = "SVJB"
	resultMagic    = "SVSR"
	heartbeatMagic = "SVHB"
)

// maxDocBytes caps one document's text in a job frame — generous next to
// the corpus reader's 4 MiB line cap, tight next to the 1 GiB frame
// bound.
const maxDocBytes = 1 << 26

// Job is the coordinator→worker shard assignment: a contiguous document
// range and the global index of its first document, so every index the
// worker reports (quarantine records above all) is already corpus-global,
// plus how the attempt runs: the extraction pattern version (zero means
// the default, V4) and whether to ship one telemetry frame after the
// result.
type Job struct {
	Shard     int
	DocOffset int
	Version   extract.Version
	Telemetry bool
	Docs      []corpus.Document
}

// WriteJob writes one job frame and returns the bytes written.
func WriteJob(w io.Writer, job *Job) (int64, error) {
	size := 32
	for i := range job.Docs {
		size += 24 + len(job.Docs[i].URL) + len(job.Docs[i].Domain) + len(job.Docs[i].Text)
	}
	e := framing.NewEncoder(size)
	e.Uvarint(uint64(job.Shard))
	e.Uvarint(uint64(job.DocOffset))
	e.Uvarint(uint64(job.Version))
	telemetry := uint64(0)
	if job.Telemetry {
		telemetry = 1
	}
	e.Uvarint(telemetry)
	e.Uvarint(uint64(len(job.Docs)))
	for i := range job.Docs {
		d := &job.Docs[i]
		e.String(d.URL)
		e.String(d.Domain)
		e.Uvarint(uint64(d.Author))
		e.String(d.Text)
	}
	return framing.WriteFrame(w, jobMagic, e.Bytes())
}

// ReadJob reads one job frame, validating every length and count before
// allocating for it.
func ReadJob(r io.Reader) (*Job, int64, error) {
	body, n, err := framing.ReadFrame(r, jobMagic)
	if err != nil {
		return nil, n, fmt.Errorf("dist: read job frame: %w", err)
	}
	d := framing.NewDecoder(body)
	job := &Job{}
	shard := d.Uvarint()
	offset := d.Uvarint()
	version := d.Uvarint()
	telemetry := d.Uvarint()
	count := d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, n, fmt.Errorf("dist: decode job header: %w", err)
	}
	if shard > math.MaxInt32 || offset > math.MaxInt32 {
		return nil, n, fmt.Errorf("dist: implausible shard %d / offset %d", shard, offset)
	}
	if version > uint64(extract.V4) || telemetry > 1 {
		return nil, n, fmt.Errorf("dist: implausible pattern version %d / telemetry %d", version, telemetry)
	}
	// Each document costs at least four bytes (three length prefixes and
	// an author varint), so the body bounds the plausible count.
	if count > uint64(d.Remaining())/4+1 {
		return nil, n, fmt.Errorf("dist: document count %d exceeds body capacity %d", count, d.Remaining())
	}
	job.Shard, job.DocOffset = int(shard), int(offset)
	job.Version, job.Telemetry = extract.Version(version), telemetry == 1
	job.Docs = make([]corpus.Document, 0, count)
	for i := uint64(0); i < count; i++ {
		var doc corpus.Document
		doc.URL = d.String()
		doc.Domain = d.String()
		author := d.Uvarint()
		doc.Text = d.StringMax(maxDocBytes)
		if err := d.Err(); err != nil {
			return nil, n, fmt.Errorf("dist: job document %d: %w", i, err)
		}
		// Any author the JSONL loader accepts must survive the trip, negative
		// ones included; reject only what this platform's int cannot hold.
		if doc.Author = int(author); uint64(doc.Author) != author {
			return nil, n, fmt.Errorf("dist: job document %d: implausible author %d", i, author)
		}
		job.Docs = append(job.Docs, doc)
	}
	if d.Remaining() != 0 {
		return nil, n, fmt.Errorf("dist: %d trailing bytes after %d job documents", d.Remaining(), count)
	}
	return job, n, nil
}

// WriteHeartbeat writes one liveness frame for shard. Workers emit them
// on a ticker while mining; heartbeats never interleave with result
// frames (the heartbeater stops before the result is written).
func WriteHeartbeat(w io.Writer, shard int) (int64, error) {
	e := framing.NewEncoder(8)
	e.Uvarint(uint64(shard))
	return framing.WriteFrame(w, heartbeatMagic, e.Bytes())
}

// decodeHeartbeat parses a heartbeat frame body into its shard index.
func decodeHeartbeat(body []byte) (int, error) {
	d := framing.NewDecoder(body)
	shard := d.Uvarint()
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("dist: decode heartbeat: %w", err)
	}
	if shard > math.MaxInt32 {
		return 0, fmt.Errorf("dist: implausible heartbeat shard %d", shard)
	}
	if d.Remaining() != 0 {
		return 0, fmt.Errorf("dist: %d trailing bytes in heartbeat", d.Remaining())
	}
	return int(shard), nil
}

// ShardResult is the worker→coordinator evidence delta plus the shard's
// input-side metadata. Quarantined documents carry corpus-global indices
// (the job's DocOffset threaded through pipeline.ExtractEvidence).
type ShardResult struct {
	Shard       int
	Consumed    int
	Sentences   int64
	Quarantined []pipeline.Quarantined
	// Store is the shard's evidence delta.
	Store *evidence.Store
}

// WriteShardResult writes the result header frame followed by the store
// frame. Returns the total bytes written. Nothing is written until both
// encodings are complete in memory, so a cancelled worker never emits a
// torn message.
func WriteShardResult(w io.Writer, res *ShardResult) (int64, error) {
	e := framing.NewEncoder(64 + 32*len(res.Quarantined))
	e.Uvarint(uint64(res.Shard))
	e.Uvarint(uint64(res.Consumed))
	e.Uvarint(uint64(res.Sentences))
	e.Uvarint(uint64(len(res.Quarantined)))
	for _, q := range res.Quarantined {
		e.Uvarint(uint64(q.Doc))
		e.String(q.Reason)
	}
	n, err := framing.WriteFrame(w, resultMagic, e.Bytes())
	if err != nil {
		return n, fmt.Errorf("dist: write result frame: %w", err)
	}
	m, err := wire.EncodeStore(w, res.Store)
	if err != nil {
		return n + m, fmt.Errorf("dist: write result store: %w", err)
	}
	return n + m, nil
}

// ReadShardResult reads one result header frame and its store frame,
// skipping any heartbeat frames ahead of them.
func ReadShardResult(r io.Reader) (*ShardResult, int64, error) {
	return readShardResult(r, nil)
}

// readShardResult is ReadShardResult with a say over the heartbeats it
// skips: each well-formed one is handed to beat (when non-nil), whose
// error fails the read.
func readShardResult(r io.Reader, beat func(shard int) error) (*ShardResult, int64, error) {
	var n int64
	var body []byte
	for {
		magic, b, m, err := framing.ReadFrameAny(r)
		n += m
		if err != nil {
			return nil, n, fmt.Errorf("dist: read result frame: %w", err)
		}
		if magic == resultMagic {
			body = b
			break
		}
		if magic != heartbeatMagic {
			return nil, n, fmt.Errorf("dist: read result frame: %w: got %q, want %q", framing.ErrBadMagic, magic, resultMagic)
		}
		shard, err := decodeHeartbeat(b)
		if err == nil && beat != nil {
			err = beat(shard)
		}
		if err != nil {
			return nil, n, err
		}
	}
	d := framing.NewDecoder(body)
	res := &ShardResult{}
	shard := d.Uvarint()
	consumed := d.Uvarint()
	sentences := d.Uvarint()
	qcount := d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, n, fmt.Errorf("dist: decode result header: %w", err)
	}
	if shard > math.MaxInt32 || consumed > math.MaxInt32 || sentences > math.MaxInt64 {
		return nil, n, fmt.Errorf("dist: implausible result header (shard %d, consumed %d)", shard, consumed)
	}
	// A quarantine record is at least two bytes (doc varint + empty
	// reason's length prefix).
	if qcount > uint64(d.Remaining())/2+1 {
		return nil, n, fmt.Errorf("dist: quarantine count %d exceeds body capacity %d", qcount, d.Remaining())
	}
	res.Shard, res.Consumed, res.Sentences = int(shard), int(consumed), int64(sentences)
	if qcount > 0 {
		res.Quarantined = make([]pipeline.Quarantined, 0, qcount)
	}
	for i := uint64(0); i < qcount; i++ {
		doc := d.Uvarint()
		reason := d.String()
		if err := d.Err(); err != nil {
			return nil, n, fmt.Errorf("dist: quarantine record %d: %w", i, err)
		}
		if doc > math.MaxInt32 {
			return nil, n, fmt.Errorf("dist: quarantine record %d: implausible document %d", i, doc)
		}
		res.Quarantined = append(res.Quarantined, pipeline.Quarantined{Doc: int(doc), Reason: reason})
	}
	if d.Remaining() != 0 {
		return nil, n, fmt.Errorf("dist: %d trailing bytes in result header", d.Remaining())
	}
	store, m, err := wire.DecodeStore(r)
	n += m
	if err != nil {
		return nil, n, fmt.Errorf("dist: shard %d store frame: %w", res.Shard, err)
	}
	res.Store = store
	return res, n, nil
}
