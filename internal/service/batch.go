package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// POST /v1/batch: many heterogeneous decisions per request. The paper's
// empirical core is bulk analysis — SHARQL-scale query logs, corpus-wide
// schema studies — so the service accepts decision batches: one HTTP
// round trip, one admission slot, one root trace, per-item verdicts.
//
// Each item names an op (containment, membership, validate, infer) and
// carries the exact body the dedicated endpoint would take, so a batch
// item's response is identical to the response of the one-per-request
// call. Items run sequentially under the batch deadline; each gets its
// own "batch.item" span (per-item cost under one root trace), its own
// verdict-cache lookup, and its own deadline watchdog, so one slow item
// yields a per-item 504 while the items before it still return verdicts.

type batchItem struct {
	// Op selects the decision: containment, membership, validate, infer.
	Op string `json:"op"`
	// Request is the op's endpoint body, verbatim. Per-item deadline_ms
	// is ignored: the batch envelope's deadline governs the whole batch.
	Request json.RawMessage `json:"request"`
}

type batchRequest struct {
	// envelope: explain returns the root span tree with one batch.item
	// child per item.
	envelope
	Items []batchItem `json:"items"`
}

type batchItemResult struct {
	Op     string `json:"op"`
	Status int    `json:"status"`
	// Response is the op endpoint's response object on status 200.
	Response any `json:"response,omitempty"`
	// Error is the op endpoint's error message on any other status.
	Error string `json:"error,omitempty"`
}

type batchResponse struct {
	Count     int               `json:"count"`
	Failed    int               `json:"failed"`
	Items     []batchItemResult `json:"items"`
	ElapsedMS float64           `json:"elapsed_ms"`
}

func (s *Server) handleBatch(ctx context.Context, req *request) (any, *apiError) {
	var br batchRequest
	if err := json.Unmarshal(req.body, &br); err != nil {
		return nil, errBadRequest("invalid JSON: %v", err)
	}
	req.env = br.envelope
	if len(br.Items) == 0 {
		return nil, errBadRequest("items is required")
	}
	req.batch = true
	ctx = s.arm(ctx, req)
	start := time.Now()
	resp := batchResponse{Count: len(br.Items), Items: make([]batchItemResult, len(br.Items))}
	for i, it := range br.Items {
		resp.Items[i] = s.runBatchItem(ctx, req, i, it)
		if resp.Items[i].Status != http.StatusOK {
			resp.Failed++
		}
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return resp, nil
}

// runBatchItem decides one item through decide, under its own child
// span. An item's run gets its own runEngine watchdog, so an engine
// without cancellation checkpoints cannot drag the whole batch past the
// deadline; once the deadline has passed, the remaining items are
// marked without starting their engines.
func (s *Server) runBatchItem(ctx context.Context, req *request, i int, it batchItem) batchItemResult {
	out := batchItemResult{Op: it.Op}
	if err := ctx.Err(); err != nil {
		aerr := ctxError(err)
		out.Status, out.Error = aerr.status, aerr.msg
		return out
	}
	ctx, span := obs.StartSpan(ctx, "batch.item")
	span.SetAttr("op", it.Op)
	span.SetAttr("index", strconv.Itoa(i))
	defer span.Finish()
	var v any
	var aerr *apiError
	if prepare := decideOps[it.Op]; prepare != nil {
		v, aerr = s.decide(ctx, req, prepare, it.Request)
	} else {
		aerr = errBadRequest("unknown op %q (want containment, membership, validate, or infer)", it.Op)
	}
	if aerr != nil {
		out.Status, out.Error = aerr.status, aerr.msg
		return out
	}
	out.Status, out.Response = http.StatusOK, v
	return out
}
