package mr

import (
	"io"
	"testing"

	"mrtext/internal/cluster"
	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
)

// fakeStream yields a fixed set of records.
type fakeStream struct {
	recs []kvio.Record
	pos  int
}

func (f *fakeStream) Next() (k, v []byte, err error) {
	if f.pos >= len(f.recs) {
		return nil, nil, io.EOF
	}
	r := f.recs[f.pos]
	f.pos++
	return r.Key, r.Value, nil
}

func (f *fakeStream) Close() error { return nil }

// TestChargedStreamBatchesTransfers: the shuffle stream charges the fabric
// in batches, and same-node streams never touch it.
func TestChargedStreamBatchesTransfers(t *testing.T) {
	c, err := cluster.New(cluster.Fast(2))
	if err != nil {
		t.Fatal(err)
	}
	acct := &reduceAccount{tm: metrics.NewTaskMetrics()}
	recs := make([]kvio.Record, 100)
	for i := range recs {
		recs[i] = kvio.Record{Key: []byte("key"), Value: make([]byte, 1024)}
	}
	// Remote stream: bytes must cross the fabric, batched.
	cs := &chargedStream{inner: &fakeStream{recs: recs}, c: c, src: 0, dst: 1, acct: acct}
	for {
		_, _, err := cs.Next()
		if err != nil {
			break
		}
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	stats := c.Net.Stats()
	wantBytes := int64(100 * (3 + 1024 + 4))
	if stats.BytesMoved != wantBytes {
		t.Errorf("moved %d bytes, want %d", stats.BytesMoved, wantBytes)
	}
	// Batching: ~100 KiB in 64 KiB batches → far fewer transfers than
	// records.
	if stats.Transfers >= 100 {
		t.Errorf("%d transfers for 100 records: not batched", stats.Transfers)
	}
	// The stream counts in the reduce goroutine's plain field; the task's
	// metrics see the bytes at the next publish.
	if acct.shuffleBytes != wantBytes || acct.tm.Counter(metrics.CtrShuffleBytes) != 0 {
		t.Errorf("counted %d bytes locally, %d published before any publish", acct.shuffleBytes, acct.tm.Counter(metrics.CtrShuffleBytes))
	}
	acct.publish()
	if got := acct.tm.Counter(metrics.CtrShuffleBytes); got != wantBytes || acct.shuffleBytes != 0 {
		t.Errorf("shuffle counter %d after publish, %d left unpublished", got, acct.shuffleBytes)
	}

	// Local stream: counted but never transferred.
	acct2 := &reduceAccount{tm: metrics.NewTaskMetrics()}
	cs2 := &chargedStream{inner: &fakeStream{recs: recs[:10]}, c: c, src: 1, dst: 1, acct: acct2}
	for {
		if _, _, err := cs2.Next(); err != nil {
			break
		}
	}
	cs2.Close()
	if c.Net.Stats().BytesMoved != wantBytes {
		t.Error("local stream moved bytes across the fabric")
	}
	if acct2.shuffleBytes == 0 {
		t.Error("local shuffle bytes not counted")
	}
}
