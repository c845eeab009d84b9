/* setrlimit binding for the sandboxed worker children.
 *
 * The OCaml standard Unix library exposes fork/waitpid/kill but not
 * setrlimit, so the sandbox's memory and CPU ceilings need this one
 * stub.  The interface is deliberately tiny: an integer resource tag
 * (0 = RLIMIT_AS, 1 = RLIMIT_CPU), one limit value, and an errno-style
 * integer result (0 on success) so the caller decides whether a
 * failure is fatal — in the child it is not: a sandbox that cannot
 * lower a limit still has the parent-side watchdog.
 *
 * For RLIMIT_CPU the hard limit gets a grace second above the soft
 * limit: with soft == hard, Linux delivers SIGKILL (hard) instead of
 * SIGXCPU (soft), which would make a CPU overrun indistinguishable
 * from an OOM kill in the parent's classification.
 */

#include <caml/mlvalues.h>
#include <errno.h>
#include <sys/resource.h>
#include <sys/time.h>

CAMLprim value cqcsp_setrlimit(value v_resource, value v_limit)
{
  int resource;
  struct rlimit rl;

  switch (Int_val(v_resource)) {
  case 0:
    resource = RLIMIT_AS;
    break;
  case 1:
    resource = RLIMIT_CPU;
    break;
  default:
    return Val_int(EINVAL);
  }

  rl.rlim_cur = (rlim_t)Long_val(v_limit);
  rl.rlim_max = (rlim_t)Long_val(v_limit);
  if (resource == RLIMIT_CPU)
    rl.rlim_max += 1;
  if (setrlimit(resource, &rl) != 0)
    return Val_int(errno);
  return Val_int(0);
}
