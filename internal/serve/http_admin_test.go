package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/linear"
	"repro/internal/model"
	"repro/internal/nb"
	"repro/internal/relational"
)

// saveModel persists m and returns its artifact path.
func saveModel(t *testing.T, m *model.Model) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.bin")
	if err := model.Save(path, m); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestHTTPModelsAndSwap exercises the admin surface end to end: listing,
// hot-swapping to a new artifact, rolling back, and every error status.
func TestHTTPModelsAndSwap(t *testing.T) {
	srv, engine, ss := testServer(t)

	var listed struct {
		Models []struct {
			Name       string `json:"name"`
			Version    int    `json:"version"`
			Kind       string `json:"kind"`
			Factorized bool   `json:"factorized"`
			Inputs     []struct {
				Name        string `json:"name"`
				Cardinality int    `json:"cardinality"`
			} `json:"inputs"`
			Versions []int `json:"versions"`
		} `json:"models"`
	}
	resp, err := http.Get(srv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listed.Models) != 1 {
		t.Fatalf("models = %+v", listed.Models)
	}
	got := listed.Models[0]
	if got.Name != "default" || got.Version != 1 || !got.Factorized ||
		len(got.Inputs) != len(engine.InputFeatures()) || len(got.Versions) != 1 {
		t.Fatalf("model entry %+v", got)
	}
	for i, f := range engine.InputFeatures() {
		if got.Inputs[i].Name != f.Name || got.Inputs[i].Cardinality != f.Cardinality {
			t.Fatalf("input %d: %+v vs %+v", i, got.Inputs[i], f)
		}
	}

	// Swap to a logreg trained on the same schema; predictions must now come
	// from the new model.
	train, _ := joinAllDataset(t, ss)
	lr := linear.NewLogReg(linear.LogRegConfig{Lambda: 1e-3, Epochs: 3, Seed: 5})
	if err := lr.Fit(train); err != nil {
		t.Fatal(err)
	}
	lrm, err := model.New(lr, train.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	lrPath := saveModel(t, lrm)
	resp, body := postJSON(t, srv.URL+"/swap", map[string]any{"path": lrPath})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/swap: %d %s", resp.StatusCode, body)
	}
	var swapped struct {
		Model   string `json:"model"`
		Version int    `json:"version"`
		Kind    string `json:"kind"`
	}
	if err := json.Unmarshal(body, &swapped); err != nil {
		t.Fatal(err)
	}
	if swapped.Version != 2 || swapped.Kind != model.KindLogReg {
		t.Fatalf("swap response %+v", swapped)
	}
	lrEngine, err := NewEngine(lrm, ss)
	if err != nil {
		t.Fatal(err)
	}
	req := lrEngine.RequestFromFactRow(make([]relational.Value, len(lrEngine.InputFeatures())), ss.Fact.Row(0))
	want, err := lrEngine.Predict(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, srv.URL+"/predict", map[string]any{"input": inputObject(lrEngine, ss.Fact.Row(0))})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/predict after swap: %d %s", resp.StatusCode, body)
	}
	var pr struct {
		Prediction int8     `json:"prediction"`
		Score      *float64 `json:"score"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Prediction != want.Class || pr.Score == nil || *pr.Score != want.Score {
		t.Fatalf("post-swap response %s, want %+v", body, want)
	}

	// Rollback to version 1 installs the old engine as version 3.
	resp, body = postJSON(t, srv.URL+"/swap", map[string]any{"version": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &swapped); err != nil {
		t.Fatal(err)
	}
	if swapped.Version != 3 || swapped.Kind != model.KindNaiveBayes {
		t.Fatalf("rollback response %+v", swapped)
	}

	// Error statuses.
	for _, tc := range []struct {
		name string
		body map[string]any
		code int
	}{
		{"unknown slot", map[string]any{"model": "nope", "path": lrPath}, http.StatusNotFound},
		{"unknown version", map[string]any{"version": 99}, http.StatusNotFound},
		{"mismatched artifact", map[string]any{"path": mismatchedArtifact(t)}, http.StatusConflict},
		{"unreadable path", map[string]any{"path": "/nonexistent/m.bin"}, http.StatusBadRequest},
		{"path and version", map[string]any{"path": lrPath, "version": 1}, http.StatusBadRequest},
		{"neither", map[string]any{}, http.StatusBadRequest},
	} {
		resp, body := postJSON(t, srv.URL+"/swap", tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d (want %d): %s", tc.name, resp.StatusCode, tc.code, body)
		}
	}
	if resp, _ := http.Get(srv.URL + "/swap"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /swap: %d", resp.StatusCode)
	}
}

// mismatchedArtifact trains an NB model on a different star schema, so
// swapping it into the test server's Walmart slot must 409.
func mismatchedArtifact(t *testing.T) string {
	t.Helper()
	ss := star(t, "Movies", 2048)
	train, _ := joinAllDataset(t, ss)
	nbc := nb.New(nb.Config{})
	if err := nbc.Fit(train); err != nil {
		t.Fatal(err)
	}
	m, err := model.New(nbc, train.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	return saveModel(t, m)
}

// TestHTTPSwapUnderLoad hammers /predict while /swap flips the slot between
// two artifacts. Every response body must be byte-identical to one model's
// quiescent response — wholly old or wholly new, never a mix. Run with -race
// in CI's race job.
func TestHTTPSwapUnderLoad(t *testing.T) {
	srv, engine, ss := testServer(t)
	train, _ := joinAllDataset(t, ss)
	lr := linear.NewLogReg(linear.LogRegConfig{Lambda: 1e-3, Epochs: 3, Seed: 5})
	if err := lr.Fit(train); err != nil {
		t.Fatal(err)
	}
	lrm, err := model.New(lr, train.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	lrPath := saveModel(t, lrm)
	nbm := engine.Model()
	nbPath := saveModel(t, nbm)

	const rows = 16
	wantByRow := make([]map[string]bool, rows)
	for i := 0; i < rows; i++ {
		wantByRow[i] = map[string]bool{}
	}
	record := func() {
		for i := 0; i < rows; i++ {
			resp, body := postJSON(t, srv.URL+"/predict", map[string]any{"input": inputObject(engine, ss.Fact.Row(i))})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("quiescent predict: %d %s", resp.StatusCode, body)
			}
			wantByRow[i][string(body)] = true
		}
	}
	record() // NB answers
	if resp, body := postJSON(t, srv.URL+"/swap", map[string]any{"path": lrPath}); resp.StatusCode != http.StatusOK {
		t.Fatalf("swap: %d %s", resp.StatusCode, body)
	}
	record() // logreg answers

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				row := (w + i) % rows
				resp, body := postJSON(t, srv.URL+"/predict", map[string]any{"input": inputObject(engine, ss.Fact.Row(row))})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d: status %d: %s", w, resp.StatusCode, body)
					return
				}
				if !wantByRow[row][string(body)] {
					errs <- fmt.Errorf("worker %d row %d: response %s matches neither model", w, row, body)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		path := nbPath
		if i%2 == 0 {
			path = lrPath
		}
		if resp, body := postJSON(t, srv.URL+"/swap", map[string]any{"path": path}); resp.StatusCode != http.StatusOK {
			t.Fatalf("swap %d: %d %s", i, resp.StatusCode, body)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHTTPRequestLimits pins the structured 413/400 contract of the bounded
// decoder: oversized bodies and over-long batches are refused with JSON
// errors, and the stream decoder rejects malformed framing.
func TestHTTPRequestLimits(t *testing.T) {
	_, engine, ss := testServer(t)
	reg := NewRegistry()
	if _, err := reg.Register("default", engine); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewRegistryServer(reg, ServerConfig{MaxBodyBytes: 2048, MaxBatchLen: 4}).Handler())
	defer srv.Close()

	obj := inputObject(engine, ss.Fact.Row(0))

	// A batch one over the cap: 413 naming the limit.
	over := make([]map[string]int32, 5)
	for i := range over {
		over[i] = obj
	}
	resp, body := postJSON(t, srv.URL+"/predict_batch", map[string]any{"inputs": over})
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "4 inputs") {
		t.Fatalf("over-long batch: %d %s", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("413 body not structured: %s", body)
	}

	// At the cap: accepted.
	resp, body = postJSON(t, srv.URL+"/predict_batch", map[string]any{"inputs": over[:4]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("at-cap batch: %d %s", resp.StatusCode, body)
	}

	// Oversized /predict body: 413.
	big := fmt.Sprintf(`{"input":{"pad":"%s"}}`, strings.Repeat("x", 4096))
	resp2, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d", resp2.StatusCode)
	}

	// Oversized /predict_batch body (valid JSON would exceed the byte cap
	// mid-stream): 413.
	var sb strings.Builder
	sb.WriteString(`{"inputs":[`)
	rawObj, _ := json.Marshal(obj)
	for i := 0; sb.Len() < 4096; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.Write(rawObj)
	}
	sb.WriteString(`]}`)
	resp2, err = http.Post(srv.URL+"/predict_batch", "application/json", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch body: %d", resp2.StatusCode)
	}

	// Malformed framing through the stream decoder: 400 with a JSON error.
	for _, bad := range []string{
		`{"inputs": 7}`,
		`{"inputs": [7]}`,
		`[1,2,3]`,
		`{"inputs": [{"x": "y"}]}`,
		`{}`,
		`{"inputs": []}`,
	} {
		resp2, err := http.Post(srv.URL+"/predict_batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		out.ReadFrom(resp2.Body)
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", bad, resp2.StatusCode, out.Bytes())
		}
		if err := json.Unmarshal(out.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: unstructured error body %s", bad, out.Bytes())
		}
	}

	// Unknown top-level keys are skipped, like encoding/json field matching.
	resp, body = postJSON(t, srv.URL+"/predict_batch",
		map[string]any{"extra": map[string]any{"deep": []int{1, 2}}, "inputs": over[:2]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unknown-key batch: %d %s", resp.StatusCode, body)
	}

	// Unknown model query: 404.
	resp, body = postJSON(t, srv.URL+"/predict?model=nope", map[string]any{"input": obj})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: %d %s", resp.StatusCode, body)
	}
}
