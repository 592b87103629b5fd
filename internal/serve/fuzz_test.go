package serve

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzJobRequest feeds arbitrary bytes through the submit path short of
// running a job: decode exactly as handleSubmit does, then Validate and
// resultKey as Scheduler.Submit does. Nothing may panic; a body that
// fails to decode is a 400 by construction, a request that fails
// validation must carry the ErrBadRequest type that maps it to a 400,
// and a request that validates must have a cache key.
//
// The seed corpus lives in testdata/fuzz/FuzzJobRequest; run the fuzzer
// with
//
//	go test -run '^$' -fuzz FuzzJobRequest -fuzztime 10s ./internal/serve
func FuzzJobRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		req, err := decodeJobRequest(httptest.NewRecorder(), r)
		if err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("Validate error %v is not a bad request", err)
			}
			if code, _ := submitErrorStatus(err); code != http.StatusBadRequest {
				t.Fatalf("Validate error %v maps to %d, want 400", err, code)
			}
			return
		}
		if req.resultKey() == "" {
			t.Fatalf("validated request %+v has no result key", req)
		}
	})
}
