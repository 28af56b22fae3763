//go:build !linux

package metrics

import "time"

// threadCPUTime is unavailable off Linux; tests that need it skip.
func threadCPUTime() time.Duration { return 0 }
