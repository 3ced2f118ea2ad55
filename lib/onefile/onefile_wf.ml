let name = "OF-WF"

type t = Core0.t
type tx = Core0.tx

let create = Core0.create
let linear_threshold = Core0.linear_threshold
let instance = Core0.instance
let faults = Core0.faults
let read_tx = Core0.wf_read_tx
let update_tx = Core0.wf_update_tx
let snapshot_ops = Core0.snapshot_ops
let load = Core0.load
let store = Core0.store
let alloc = Core0.alloc
let free = Core0.free
let root = Core0.root
let num_roots = Core0.num_roots
let region = Core0.region
let recover = Core0.recover
let allocated_cells = Core0.allocated_cells
let curtx_info = Core0.curtx_info
let sanitize = Core0.sanitize
let desanitize = Core0.desanitize
let checker = Core0.checker
let attach_telemetry = Core0.attach_telemetry
let detach_telemetry = Core0.detach_telemetry
let telemetry = Core0.telemetry
