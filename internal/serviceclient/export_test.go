package serviceclient

import "github.com/sram-align/xdropipu/internal/clock"

// UpdateQueueCap exposes the Results channel's capacity, so a test can
// send more updates than the channel holds.
const UpdateQueueCap = updateQueueCap

// SetClock puts the client's backoff waits on c.
func (c *Client) SetClock(clk clock.Clock) { c.clk = clk }
