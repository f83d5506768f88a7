package serve

// RetainedJobs exposes the retained-job window to the external tests.
const RetainedJobs = retainedJobs
