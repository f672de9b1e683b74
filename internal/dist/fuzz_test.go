package dist

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/evidence"
	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/pipeline"
	"repro/internal/wire/framing"
)

// FuzzDistProto holds every coordinator-facing decoder of the dist
// protocol — job, shard result, heartbeat — to the validated-decode
// contract over arbitrary bytes: never panic, never allocate past the
// declared bounds, and stay round-trip consistent (whatever decodes
// successfully must re-encode and decode back to an identical value).
// The scheduler feeds these decoders straight from worker links, so a malicious or corrupted worker must be able to fail a
// shard attempt but never crash the coordinator.
func FuzzDistProto(f *testing.F) {
	var job bytes.Buffer
	if _, err := WriteJob(&job, &Job{
		Shard:     3,
		DocOffset: 1207,
		Version:   extract.V3,
		Telemetry: true,
		Docs: []corpus.Document{
			{URL: "http://a.example/1", Domain: "a.example", Author: 12, Text: "the kitten is cute."},
			{URL: "", Domain: "", Author: 9000, Text: "spiders are not cute!"},
		},
	}); err != nil {
		f.Fatal(err)
	}
	store := evidence.NewStore()
	store.AddCounts(evidence.Key{Entity: kb.EntityID(7), Property: "cute"}, evidence.Counts{Pos: 41, Neg: 3})
	var res bytes.Buffer
	if _, err := WriteShardResult(&res, &ShardResult{
		Shard: 2, Consumed: 57, Sentences: 421,
		Quarantined: []pipeline.Quarantined{{Doc: 1210, Reason: "panic: boom"}},
		Store:       store,
	}); err != nil {
		f.Fatal(err)
	}
	var hb bytes.Buffer
	if _, err := WriteHeartbeat(&hb, 5); err != nil {
		f.Fatal(err)
	}
	f.Add(job.Bytes())
	f.Add(res.Bytes())
	f.Add(hb.Bytes())
	f.Add(job.Bytes()[:job.Len()/2])
	f.Add([]byte(jobMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if j, n, err := ReadJob(bytes.NewReader(data)); err == nil {
			if n > int64(len(data)) {
				t.Fatalf("ReadJob consumed %d of %d bytes", n, len(data))
			}
			var re bytes.Buffer
			if _, err := WriteJob(&re, j); err != nil {
				t.Fatalf("re-encode of decoded job: %v", err)
			}
			j2, _, err := ReadJob(bytes.NewReader(re.Bytes()))
			if err != nil {
				t.Fatalf("decode of re-encoded job: %v", err)
			}
			if !reflect.DeepEqual(j, j2) {
				t.Fatalf("job round-trip drift:\n%+v\n%+v", j, j2)
			}
		}

		if r, n, err := ReadShardResult(bytes.NewReader(data)); err == nil {
			if n > int64(len(data)) {
				t.Fatalf("ReadShardResult consumed %d of %d bytes", n, len(data))
			}
			var re bytes.Buffer
			if _, err := WriteShardResult(&re, r); err != nil {
				t.Fatalf("re-encode of decoded result: %v", err)
			}
			r2, _, err := ReadShardResult(bytes.NewReader(re.Bytes()))
			if err != nil {
				t.Fatalf("decode of re-encoded result: %v", err)
			}
			if r.Shard != r2.Shard || r.Consumed != r2.Consumed || r.Sentences != r2.Sentences ||
				!reflect.DeepEqual(r.Quarantined, r2.Quarantined) ||
				!reflect.DeepEqual(r.Store.Snapshot(), r2.Store.Snapshot()) {
				t.Fatalf("shard result round-trip drift:\n%+v\n%+v", r, r2)
			}
		}

		// The result loop's view of what precedes the result: any frame,
		// heartbeats decoded and round-tripped.
		if magic, body, _, err := framing.ReadFrameAny(bytes.NewReader(data)); err == nil && magic == heartbeatMagic {
			if shard, err := decodeHeartbeat(body); err == nil {
				var re bytes.Buffer
				if _, err := WriteHeartbeat(&re, shard); err != nil {
					t.Fatalf("re-encode of decoded heartbeat: %v", err)
				}
				_, body2, _, err := framing.ReadFrameAny(bytes.NewReader(re.Bytes()))
				if err != nil {
					t.Fatalf("decode of re-encoded heartbeat: %v", err)
				}
				if shard2, err := decodeHeartbeat(body2); err != nil || shard2 != shard {
					t.Fatalf("heartbeat round-trip drift: %d vs %d (%v)", shard, shard2, err)
				}
			}
		}
	})
}
