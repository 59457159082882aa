package disk

// The disk serves requests in arrival order: an asynchronous write is
// accounted when it is issued (WriteSectors), starting once the arm is
// free of everything issued before it, so no request is ever held back
// awaiting dispatch. The two depth accessors below predate that being
// the only order; they stay because lfsperf and the disk.queue.*
// metric series read them, and they report what arrival-order service
// has always made them report.

// QueueDepth returns the number of issued asynchronous requests whose
// service has not been accounted yet: always 0.
func (d *Disk) QueueDepth() int { return 0 }

// MaxQueueDepth returns the high-water mark of requests awaiting
// accounting: 1 once any asynchronous write was issued (it is counted
// in the instant it is issued), 0 before.
func (d *Disk) MaxQueueDepth() int { return d.maxQueueDepth }

// SetClient labels subsequent requests with the issuing client ID
// (0 = unattributed); traces carry it so multi-client runs can
// decompose disk traffic per client.
func (d *Disk) SetClient(id int) { d.client = id }

// SetShard labels subsequent requests with the owning shard's 1-based
// ID (0 = unsharded); the shard router sets it once per shard at
// mount so traces decompose disk traffic per log.
func (d *Disk) SetShard(id int) { d.shard = id }
