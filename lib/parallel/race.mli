(** Race independent tasks on a bounded set of domains, delivering each
    result to the calling domain in completion order.

    This is the only multicore primitive, under both kinds of racing in
    [Core.Solver]: tasks are route attempts or the parts of a
    disconnected source, [consume] inspects each finisher's claim on the
    *calling* domain (where it can run the trusted certificate checker
    and mutate solver state without synchronization), and cancellation
    is the tasks' own business — typically a shared [Budget] cancel flag
    the consumer sets once a claim is accepted. *)

type 'a event = { index : int; value : 'a }
(** A completed task: [index] is its position in the [tasks] array. *)

val run :
  threads:int -> tasks:(unit -> 'a) array -> consume:('a event -> unit) -> unit
(** [run ~threads ~tasks ~consume] executes every task on a pool of
    [min threads (Array.length tasks)] fresh domains (at least 1) and
    calls [consume] on the calling domain once per task, in the order
    the tasks finish.  All tasks run to completion — a consumer that
    wants the rest to stop early must make them stop through shared
    state the task bodies poll.  [threads = 1] runs the tasks
    sequentially in array order with no domains spawned.

    If a task raises, its exception is stashed and re-raised on the
    caller after all tasks and consumptions are done (first one wins);
    an exception raised by [consume] likewise aborts after the tasks
    drain.  Tasks should therefore treat raising as exceptional —
    expected failures belong in ['a]. *)
