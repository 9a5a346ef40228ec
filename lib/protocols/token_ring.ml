open Hpl_core
open Hpl_sim

type params = {
  n : int;
  cs_probability : float;
  cs_duration : float;
  pass_delay : float;
  horizon : float;
  seed : int64;
}

let default =
  {
    n = 5;
    cs_probability = 0.6;
    cs_duration = 4.0;
    pass_delay = 1.0;
    horizon = 600.0;
    seed = 23L;
  }

type outcome = {
  trace : Trace.t;
  entries : int array;
  mutual_exclusion : bool;
  all_served : bool;
  token_passes : int;
}

let token_tag = "ring-token"
let enter_tag = "cs-enter"
let exit_tag = "cs-exit"
let leave_timer = "cs-leave"
let pass_timer = "pass"

type state = {
  params : params;
  me : int;
  rng : Rng.t;
  holding : bool;
  in_cs : bool;
  my_entries : int;
}

let next_pid st = Pid.of_int ((st.me + 1) mod st.params.n)

let init params p =
  let me = Pid.to_int p in
  let st =
    {
      params;
      me;
      rng = Rng.create (Int64.add params.seed (Int64.of_int (me * 31)));
      holding = me = 0;
      in_cs = false;
      my_entries = 0;
    }
  in
  let actions =
    if st.holding then [ Engine.Set_timer (params.pass_delay, pass_timer) ] else []
  in
  (st, actions)

(* the holder either enters its critical section or passes on *)
let act st ~now =
  if now > st.params.horizon then (st, [])
  else if (not st.in_cs) && Rng.float st.rng 1.0 < st.params.cs_probability then
    ( { st with in_cs = true; my_entries = st.my_entries + 1 },
      [
        Engine.Log_internal enter_tag;
        Engine.Set_timer (st.params.cs_duration, leave_timer);
      ] )
  else
    ( { st with holding = false },
      [ Engine.Send (next_pid st, Wire.enc token_tag []) ] )

let on_message st ~self:_ ~src:_ ~payload ~now:_ =
  if Wire.is token_tag payload then
    ( { st with holding = true },
      [ Engine.Set_timer (st.params.pass_delay, pass_timer) ] )
  else (st, [])

let on_timer st ~self:_ ~tag ~now =
  if String.equal tag pass_timer && st.holding && not st.in_cs then act st ~now
  else if String.equal tag leave_timer && st.in_cs then
    ( { st with in_cs = false; holding = false },
      [
        Engine.Log_internal exit_tag;
        Engine.Send (next_pid st, Wire.enc token_tag []);
      ] )
  else (st, [])

let check_exclusion z =
  let inside : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let ok = ref true in
  List.iter
    (fun e ->
      match e.Event.kind with
      | Event.Internal t when String.equal t enter_tag ->
          if Hashtbl.length inside > 0 then ok := false;
          Hashtbl.replace inside (Pid.to_int e.Event.pid) ()
      | Event.Internal t when String.equal t exit_tag ->
          Hashtbl.remove inside (Pid.to_int e.Event.pid)
      | _ -> ())
    (Trace.to_list z);
  !ok

let run ?(config = Engine.default) params =
  let config =
    { config with Engine.n = params.n; max_time = params.horizon *. 2.0 }
  in
  let result =
    Engine.run config { Engine.init = init params; on_message; on_timer }
  in
  let z = result.Engine.trace in
  let entries = Array.map (fun st -> st.my_entries) result.Engine.states in
  {
    trace = z;
    entries;
    mutual_exclusion = check_exclusion z;
    all_served = Array.for_all (fun e -> e > 0) entries;
    token_passes =
      List.length
        (List.filter (fun m -> Wire.is token_tag m.Msg.payload) (Trace.sent z));
  }

(* -- registry ----------------------------------------------------------- *)

(* knowledge-view spec: the token circulates; holding is determined by
   a process's own send/receive balance, so it is a local predicate *)
let ring_spec ~n =
  if n < 2 then invalid_arg "Token_ring.ring_spec: need at least two processes";
  Spec.make ~n (fun p history ->
      let i = Pid.to_int p in
      let bal =
        (if i = 0 then 1 else 0) + Protocol.recvs history - Protocol.sends history
      in
      Spec.Recv_any
      ::
      (if bal = 1 then [ Spec.Send_to (Pid.of_int ((i + 1) mod n), "token") ]
       else []))

let holds_prop ~i =
  Prop.local (Pid.of_int i) (Printf.sprintf "holds%d" i) (fun h ->
      (if i = 0 then 1 else 0) + Protocol.recvs h - Protocol.sends h = 1)

let protocol =
  Protocol.make ~name:"token-ring"
    ~doc:"token circulates a ring; holding is a local predicate"
    ~params:[ Protocol.param ~lo:2 "n" 3 "ring size" ]
    ~atoms:(fun vs ->
      List.init (Protocol.get vs "n") (fun i ->
          (Printf.sprintf "holds%d" i, holds_prop ~i)))
    ~suggested_depth:6
    ~fault_scenarios:[ "drop:p0->p1"; "crash:p1@2"; "crash-any:1" ]
    (fun vs -> ring_spec ~n:(Protocol.get vs "n"))
