(* The permissive 32-bit machine the unit tests run on (every width
   legal, unit costs), looked up by name as [mcc --machine test32] does. *)
let machine = Option.get (Mac_machine.Machine.by_name "test32")
