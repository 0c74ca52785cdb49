package a

// Name literals in the approved shapes.
const (
	goodCounter = "mwld_requests_total"
	goodGauge   = "mwld_queue_depth"
	goodHist    = "mwld_solve_duration_seconds"
	goodSeries  = "mwld_solve_duration_seconds_bucket{le=\"+Inf\"} %d"
	goodFormat  = "mwld_requests_total{method=%q} %d\n"
)

// Convention violations.
const (
	badCase   = "mwld_Requests_total"   // want `not of the form`
	badDash   = "mwld_cache-hits_total" // want `not of the form`
	badUnit   = "mwld_latency_ms"       // want `uses suffix _ms`
	badTotals = "mwld_solve_totals"     // want `uses suffix _totals`
	badSeries = "mwld_sizes_bucket"     // want `lacks a unit suffix`
)
