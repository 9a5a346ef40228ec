open Hpl_core

(* Hoisted from bin/hpl.ml: a ring of talkative processes, each willing
   to send right, idle, or receive — maximal branching per step, so a
   stress test for the enumerator and the canonical quotient. *)
let spec ~n =
  if n < 1 then invalid_arg "Chatter.spec: need at least one process";
  Spec.make ~n (fun p history ->
      if List.length history >= 2 then []
      else
        let right = Pid.of_int ((Pid.to_int p + 1) mod n) in
        [ Spec.Send_to (right, "c"); Spec.Do "idle"; Spec.Recv_any ])

let sent = Prop.local (Pid.of_int 0) "sent" (List.exists Event.is_send)

let idled =
  Protocol.did_prop "idled" (Pid.of_int 0) "idle"

let protocol =
  Protocol.make ~name:"chatter"
    ~doc:"every process may send right, idle, or receive — branching stress"
    ~params:[ Protocol.param "n" 2 "ring size" ]
    ~atoms:(fun _ -> [ ("sent", sent); ("idled", idled) ])
    ~symmetry:(fun vs ->
      let n = Protocol.get vs "n" in
      if n >= 2 then [ Symmetry.rotation n ] else [])
    ~suggested_depth:4
    ~fault_scenarios:[ "crash-any:1"; "dup:*" ]
    (fun vs -> spec ~n:(Protocol.get vs "n"))
