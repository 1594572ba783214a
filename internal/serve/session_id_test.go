package serve_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"bgqflow/internal/serve"
)

// Session IDs are opaque to the daemon (any string up to 128 bytes), so
// the client must path-escape them on every /v1/transfer/{id}/... call.
// An unescaped "a%b" does not parse as a URL at all and an unescaped
// "a/b" routes nowhere, so every resume 404s into a re-POST.
var oddSessionIDs = []string{"a/b", "a%b", "a b?c"}

func TestSessionOddIDsRoundTrip(t *testing.T) {
	opts := serve.TransferOpts{DropEvery: 2, AckEvery: 2}
	check := func(t *testing.T, id string, out serve.TransferOutcome, err error, c *serve.Client) {
		t.Helper()
		if err != nil {
			t.Fatalf("transfer %q: %v", id, err)
		}
		if out.Err != "" || out.Restarts != 0 || out.Resumes < 1 {
			t.Fatalf("transfer %q: err=%q restarts=%d resumes=%d, want a clean resumed run",
				id, out.Err, out.Restarts, out.Resumes)
		}
		if want := oracleReport(t, sessionReq(id), out); !bytes.Equal(out.Report, want) {
			t.Errorf("transfer %q: report differs from direct run\nstreamed: %s\ndirect:   %s", id, out.Report, want)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := c.Heartbeat(ctx, id); err != nil {
			t.Errorf("heartbeat %q: %v", id, err)
		}
		st, err := c.TransferStatus(ctx, id)
		if err != nil || st.ID != id {
			t.Errorf("status %q: id=%q err=%v", id, st.ID, err)
		}
	}

	t.Run("Client", func(t *testing.T) {
		_, client := newTestDaemon(t, serve.Config{})
		for _, id := range oddSessionIDs {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			out, err := client.Transfer(ctx, sessionReq(id), opts)
			cancel()
			check(t, id, out, err, client)
		}
	})

	t.Run("RingClient", func(t *testing.T) {
		tc := newTestCluster(t, 3, nil)
		for _, id := range oddSessionIDs {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			out, err := tc.ring.Transfer(ctx, sessionReq(id), opts)
			cancel()
			check(t, id, out, err, tc.ring.Client(tc.ringOwner("session|"+id)))
		}
	})
}
