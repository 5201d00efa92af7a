# Sourced by the workflow's smoke steps:
#
#     . .github/scripts/expect_exit.sh
#     expect_exit CODE ERROR BODY COMMAND [ARGS...]
#
# Runs the command, then fails unless it exited with CODE and the JSON
# body in the file BODY names the error ERROR ("error": "ERROR").  A
# command whose body goes to stdout is run with stdout redirected to BODY.

expect_exit() {
    local want=$1 error=$2 body=$3 rc=0
    shift 3
    "$@" || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "expected exit $want, got $rc: $*" >&2
        return 1
    fi
    if ! grep -q "\"error\": \"$error\"" "$body"; then
        echo "$body does not name the error $error: $*" >&2
        return 1
    fi
}
