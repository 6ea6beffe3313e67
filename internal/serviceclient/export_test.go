package serviceclient

// UpdateQueueCap exposes the Results channel's capacity, so a test can
// send more updates than the channel holds.
const UpdateQueueCap = updateQueueCap
