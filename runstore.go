package calgo

import (
	"calgo/internal/runstore"
)

// Run-history store: every completed check, stream verdict and bench
// trajectory point as a queryable record. The store interface has two
// backends — a bounded in-memory ring (the serve default) and a durable
// append-only filesystem journal with crash-safe replay — and a small
// query engine over them (label selectors, time ranges, per-cell bench
// regressions against a baseline). The CLIs expose it via -store and
// the ops server serves it on /runsz and /queryz.
type (
	// RunRecord is one calgo.run/v1 record: a report or bench document
	// plus the first-class labels (tool, kind, verdict, time) and any
	// free-form labels the producer attached.
	RunRecord = runstore.Record
	// RunStore is the storage interface both backends implement.
	RunStore = runstore.Store
	// RunFilter selects records by id, tool, verdict, kind, labels and
	// time range.
	RunFilter = runstore.Filter
	// RunQuery is a parsed query (runs listing or bench regressions).
	RunQuery = runstore.Query
	// QueryResult is the calgo.query/v1 result document.
	QueryResult = runstore.Result
	// BenchDoc is the BENCH_<date>.json perf-trajectory document.
	BenchDoc = runstore.Bench
	// BenchCellDelta is one per-cell regression of a bench comparison.
	BenchCellDelta = runstore.CellDelta
	// FSStoreOptions configures OpenFSStore.
	FSStoreOptions = runstore.FSOptions
	// RetentionPolicy bounds a store beyond superseded-record GC:
	// max-age, max-records, per-kind keep-N.
	RetentionPolicy = runstore.Retention
)

// Schema identifiers of the store's JSON documents.
const (
	// RunRecordSchemaVersion identifies the run-record document shape.
	RunRecordSchemaVersion = runstore.RecordSchema
	// QuerySchemaVersion identifies the query-result document shape.
	QuerySchemaVersion = runstore.QuerySchema
)

var (
	// NewRingStore returns a bounded in-memory store that evicts oldest
	// records past capacity (counting evictions in the metrics registry).
	NewRingStore = runstore.NewRing
	// OpenFSStore opens (creating if needed) a durable store rooted at a
	// directory of append-only JSON-lines segments.
	OpenFSStore = runstore.OpenFS
	// ParseRunQuery parses the query expression grammar shared by
	// calreport -query and /queryz.
	ParseRunQuery = runstore.ParseQuery
	// RunQueryOn executes a query against a store.
	RunQueryOn = runstore.Run
	// LatestRun returns the newest record matching a filter.
	LatestRun = runstore.Latest
	// IngestBenchFiles imports a directory's BENCH_*.json trajectory
	// files into a store under deterministic IDs (idempotent).
	IngestBenchFiles = runstore.IngestBenchDir
	// RunQueryOnContext executes a query with cancellation.
	RunQueryOnContext = runstore.RunContext
)
