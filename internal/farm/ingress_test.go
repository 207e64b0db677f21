package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vbmo/internal/farm/cachekey"
)

// ingressResult returns the result the test files under key, in
// canonical form and as a worker might format it instead: indented,
// with '<', '>', '&' and U+2028 left unescaped. It holds everything
// canonicalization changes, plus nested arrays and exponent numbers.
func ingressResult(t *testing.T, key string) (canonical, loose []byte) {
	t.Helper()
	v := map[string]any{
		"key":  key,
		"note": "<cell> & co\u2028",
		"vals": []any{1e21, -2.5e-7, []any{[]any{}, 3}},
	}
	canonical, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, canonical, "", "  "); err != nil {
		t.Fatal(err)
	}
	unescape := strings.NewReplacer(`\u003c`, "<", `\u003e`, ">", `\u0026`, "&", `\u2028`, "\u2028")
	loose = []byte(unescape.Replace(buf.String()))
	if bytes.Equal(loose, canonical) {
		t.Fatal("loose form is canonical")
	}
	return canonical, loose
}

// completeAll leases every queued cell of c's server and completes each
// through post, then waits for job id to finish.
func completeAll(t *testing.T, c *Client, id string, post func(lc LeasedCell)) JobStatus {
	t.Helper()
	resp, err := c.Lease(LeaseRequest{Worker: "ingress", Max: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, lc := range resp.Cells {
		post(lc)
	}
	st, err := c.Wait(id, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Executed != st.Total {
		t.Fatalf("job %+v, want every cell completed remotely", st)
	}
	return st
}

// resultsBody fetches the raw /results body of job id.
func resultsBody(t *testing.T, c *Client, id string) []byte {
	t.Helper()
	resp, err := http.Get(c.Base + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d, %v: %s", resp.StatusCode, err, body)
	}
	return body
}

// TestDigestCanonicalAtIngress: results enter the server at two points
// that do not guarantee canonical bytes, a worker's completion and a
// recovered journal, and the job digest streamed over them must still
// equal cachekey.Hash over the results. A completion posted over raw
// HTTP with an indented, unescaped result must give the cold job the
// digest of its warm resubmission, of cachekey.Hash over its served
// results, and of the same job completed through the Client that
// vbrworker uses; the /results bodies must agree but for "cached". A
// cache journal written by hand with loose results must serve the same
// digest.
func TestDigestCanonicalAtIngress(t *testing.T) {
	spec := e2eSpec()

	// Cold job completed over raw HTTP with loose result bytes. The
	// servers run no executors, so every cold cell waits for a
	// completion.
	rawSrv, raw := startServer(t, t.TempDir(), 0)
	defer rawSrv.Stop()
	st, err := raw.Submit(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	cold := completeAll(t, raw, st.ID, func(lc LeasedCell) {
		_, loose := ingressResult(t, lc.Key)
		body := fmt.Sprintf("{\n  \"worker\": \"ingress\",\n  \"lease\": %d,\n  \"key\": %q,\n  \"result\": %s\n}\n",
			lc.Lease, lc.Key, loose)
		resp, err := http.Post(raw.Base+"/v1/cells/complete", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ack CompleteResponse
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !ack.Accepted || ack.Duplicate {
			t.Fatalf("completion of %s: status %d, %+v, %v", lc.Key, resp.StatusCode, ack, err)
		}
	})
	coldBody := resultsBody(t, raw, cold.ID)
	var res JobResults
	if err := json.Unmarshal(coldBody, &res); err != nil {
		t.Fatal(err)
	}
	values := make([]json.RawMessage, len(res.Results))
	for i, r := range res.Results {
		values[i] = r.Result
	}
	if h := cachekey.Hash(values); cold.Digest != h {
		t.Errorf("cold digest %s, cachekey.Hash over the served results %s", cold.Digest, h)
	}

	warm, err := raw.Submit(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if warm.State != StateDone || warm.Cached != warm.Total || warm.Digest != cold.Digest {
		t.Errorf("warm resubmission %+v, want every cell cached and digest %s", warm, cold.Digest)
	}
	warmBody := bytes.ReplaceAll(resultsBody(t, raw, warm.ID), []byte(`"cached":true`), []byte(`"cached":false`))
	if !bytes.Equal(warmBody, coldBody) {
		t.Errorf("warm /results body differs beyond \"cached\":\n%s\ncold:\n%s", warmBody, coldBody)
	}

	// The same job completed through the Client.
	clientSrv, client := startServer(t, t.TempDir(), 0)
	defer clientSrv.Stop()
	if st, err = client.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	viaClient := completeAll(t, client, st.ID, func(lc LeasedCell) {
		canonical, _ := ingressResult(t, lc.Key)
		ack, err := client.Complete(CompleteRequest{Worker: "ingress", Lease: lc.Lease, Key: lc.Key, Result: canonical})
		if err != nil || !ack.Accepted || ack.Duplicate {
			t.Fatalf("completion of %s: %+v, %v", lc.Key, ack, err)
		}
	})
	if viaClient.Digest != cold.Digest {
		t.Errorf("digest through the Client %s, over raw HTTP %s", viaClient.Digest, cold.Digest)
	}
	if body := resultsBody(t, client, viaClient.ID); !bytes.Equal(body, coldBody) {
		t.Errorf("/results body through the Client differs:\n%s\nraw HTTP:\n%s", body, coldBody)
	}

	// A cache journal written by hand, with loose results on one line
	// each: recovery canonicalizes them.
	dir := t.TempDir()
	journal := fmt.Sprintf("{\"fingerprint\":%q}\n", cachekey.Version())
	for _, r := range res.Results {
		_, loose := ingressResult(t, r.Key)
		journal += fmt.Sprintf("{\"key\": %q, \"result\": %s}\n", r.Key, bytes.ReplaceAll(loose, []byte("\n"), []byte(" ")))
	}
	if err := os.WriteFile(filepath.Join(dir, "results.jsonl"), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	recSrv, recovered := startServer(t, dir, 0)
	defer recSrv.Stop()
	st, err = recovered.Submit(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Cached != st.Total || st.Digest != cold.Digest {
		t.Errorf("job over a hand-written cache %+v, want every cell cached and digest %s", st, cold.Digest)
	}
}
